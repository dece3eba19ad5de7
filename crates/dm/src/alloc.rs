//! Two-level memory management (FUSEE-style) used by Ditto, written once.
//!
//! The memory-node controller hands out coarse *segments* through the
//! `ALLOC`/`FREE` RPC interface ([`AllocService`]); each cache client's
//! [`StripedAllocator`] carves fixed 64-byte blocks out of its current
//! segment per node and recycles freed blocks locally.  After the cache
//! warms up, evictions keep refilling the local free ranges, so
//! steady-state `Set` operations allocate without any extra round trip —
//! matching the paper's assumption that memory management stays off the
//! data path.
//!
//! Both levels keep free space in one coalescing best-fit store,
//! `FreeRanges`: the node's ranges returned by `FREE`, and each client's
//! parked blocks per node.  The client allocator also books every grant
//! and free in the pool's resident gauge and caps its own hoard.

use crate::addr::RemoteAddr;
use crate::client::DmClient;
use crate::error::{DmError, DmResult};
use crate::memnode::MemoryNode;
use crate::rpc::{wire, RpcHandler, ALLOC_SERVICE};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Granularity of client-side block allocation, matching the 64-byte memory
/// blocks of the sample-friendly hash table's `size` field.
pub const BLOCK_SIZE: u64 = 64;

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
                let reply = wire::reply(reply, 1)?;
                node.free_segment(offset, size)?;
                reply[0] = STATUS_OK;
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

/// Rounds `size` up to a whole number of blocks (at least one).
pub fn blocks_for(size: usize) -> u64 {
    ((size as u64).max(1)).div_ceil(BLOCK_SIZE)
}

/// A coalescing set of free ranges (start offset → length in bytes) with a
/// running total: a memory node's store of `FREE`d ranges, and a client's
/// parked blocks on one node.
///
/// Freed space is kept as ranges, adjacent ones merged, rather than as
/// exact-size lists.  With many clients sharing a full pool this matters:
/// eviction victims are picked by cache priority, not size, so recycled
/// fragments must merge and split — exact-size lists starve large asks
/// while plenty of free space sits fragmented.
#[derive(Default)]
pub(crate) struct FreeRanges {
    ranges: BTreeMap<u64, u64>,
    total: u64,
}

impl FreeRanges {
    /// Total free bytes.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Whether some range holds `len` bytes.
    pub(crate) fn fits(&self, len: u64) -> bool {
        self.ranges.values().any(|&free| free >= len)
    }

    /// Takes `len` bytes best fit: from the front of the smallest range
    /// that holds them (the lowest offset among equals), the rest of the
    /// range staying free.
    pub(crate) fn take(&mut self, len: u64) -> Option<u64> {
        let (offset, free) = self
            .ranges
            .iter()
            .filter(|&(_, &free)| free >= len)
            .min_by_key(|&(_, &free)| free)
            .map(|(&offset, &free)| (offset, free))?;
        self.ranges.remove(&offset);
        if free > len {
            self.ranges.insert(offset + len, free - len);
        }
        self.total -= len;
        Some(offset)
    }

    /// Takes the largest range whole (the highest offset among equals).
    pub(crate) fn pop_largest(&mut self) -> Option<(u64, u64)> {
        let (offset, len) = self
            .ranges
            .iter()
            .max_by_key(|&(_, &len)| len)
            .map(|(&offset, &len)| (offset, len))?;
        self.ranges.remove(&offset);
        self.total -= len;
        Some((offset, len))
    }

    /// Frees `[offset, offset + len)`, merging it with adjacent free
    /// ranges.  Refuses a range that overlaps a free one — a double free —
    /// and returns `false`, changing nothing.
    #[must_use]
    pub(crate) fn insert(&mut self, offset: u64, len: u64) -> bool {
        let end = offset + len;
        // The last range starting before `end` overlaps the freed range
        // exactly when some range does (ranges are sorted and disjoint).
        let before = self.ranges.range(..end).next_back();
        let before = before.map(|(&start, &len)| (start, len));
        if before.is_some_and(|(start, len)| start + len > offset) {
            return false;
        }
        let merged = len + self.ranges.remove(&end).unwrap_or(0);
        let (start, merged) = match before {
            Some((start, prev)) if start + prev == offset => (start, prev + merged),
            _ => (offset, merged),
        };
        self.ranges.insert(start, merged);
        self.total += len;
        true
    }
}

/// The fallback order over `active`: `preferred` first (when active), then
/// the other active nodes in order.
fn fallback(active: &[u16], preferred: u16) -> impl Iterator<Item = u16> + '_ {
    let first = active.contains(&preferred).then_some(preferred);
    first
        .into_iter()
        .chain(active.iter().copied().filter(move |&mn| mn != preferred))
}

/// One memory node's share of a client's blocks.
#[derive(Default)]
struct NodeBlocks {
    /// The open segment's uncarved rest.
    segment: Range<u64>,
    /// Freed blocks parked for reuse.
    parked: FreeRanges,
    /// Blocks handed out and not yet freed.
    live_blocks: u64,
    segments_fetched: u64,
}

impl NodeBlocks {
    fn carve_segment(&mut self, bytes: u64) -> Option<u64> {
        let offset = self.segment.start;
        (self.segment.end - offset >= bytes).then(|| {
            self.segment.start += bytes;
            offset
        })
    }

    /// Installs a freshly granted segment as the open one, parking the old
    /// one's uncarved tail: it stays granted to this client, so left
    /// unparked it would serve no one until a crash sweep.
    fn open_segment(&mut self, segment: Range<u64>) {
        let tail = std::mem::replace(&mut self.segment, segment);
        if !tail.is_empty() {
            self.park(tail.start, tail.end - tail.start);
        }
        self.segments_fetched += 1;
    }

    /// Parks a freed range; one overlapping a parked range is a double free
    /// inside this client, a bug.
    fn park(&mut self, offset: u64, len: u64) {
        assert!(
            self.parked.insert(offset, len),
            "[{offset:#x}, +{len}) freed while already parked"
        );
    }
}

/// The client side of the two-level scheme: a cache client's block
/// allocator over every memory node, with a *preferred* (stripe-local)
/// node per allocation.
///
/// Per node it carves 64-byte blocks out of one open segment, fetched with
/// an `ALLOC` RPC only when the parked ranges and the open segment cannot
/// serve an ask, and parks freed blocks for reuse.  Every grant and every
/// free is booked in the pool's per-node resident gauge
/// ([`crate::PoolStats::resident_bytes_on`]), whose drained-node entry
/// reaching zero allows [`crate::MemoryPool::remove_node`].
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
/// evictions return to the node they live on.  Blocks on *drained* nodes
/// are accepted back but never handed out again: draining stops all new
/// placements, so eviction churn progressively empties the node until it
/// can be removed.
pub struct StripedAllocator {
    /// Per-node state, indexed by `mn_id` (grown on first use).
    per_node: Vec<NodeBlocks>,
    /// Active node ids in fallback order (refreshed on resize epochs).
    active: Arc<[u16]>,
    segment_size: u64,
    /// Blocks of the latest ask, the hoard cap's floor (see
    /// [`StripedAllocator::free`]).
    latest_ask: u64,
}

impl StripedAllocator {
    /// Creates an allocator over the given active nodes that fetches
    /// segments of `segment_size` bytes.
    pub fn new(active: &[u16], segment_size: u64) -> Self {
        StripedAllocator {
            per_node: Vec::new(),
            active: active.into(),
            segment_size: segment_size.max(BLOCK_SIZE),
            latest_ask: 0,
        }
    }

    /// Replaces the active-node set (called when the client observes a new
    /// resize epoch).  Blocks on nodes that left stay parked, so frees keep
    /// recycling resident blocks there.
    pub fn set_active(&mut self, active: &[u16]) {
        self.active = active.into();
    }

    fn node_mut(&mut self, mn_id: u16) -> &mut NodeBlocks {
        let idx = mn_id as usize;
        if self.per_node.len() <= idx {
            self.per_node.resize_with(idx + 1, NodeBlocks::default);
        }
        &mut self.per_node[idx]
    }

    /// Notes an ask of `size` bytes as the latest; returns its blocks.
    fn ask(&mut self, size: usize) -> u64 {
        self.latest_ask = blocks_for(size);
        self.latest_ask
    }

    /// Hands out `blocks` at `offset` on `mn_id`: live here, resident in
    /// the pool's gauge.
    fn grant(&mut self, client: &DmClient, mn_id: u16, offset: u64, blocks: u64) -> RemoteAddr {
        self.node_mut(mn_id).live_blocks += blocks;
        client
            .pool()
            .stats()
            .record_resident_alloc(mn_id, blocks * BLOCK_SIZE);
        RemoteAddr::new(mn_id, offset)
    }

    /// `blocks` from `mn_id`'s parked ranges (best fit) or else its open
    /// segment, without an RPC.
    fn local_at(&mut self, client: &DmClient, mn_id: u16, blocks: u64) -> Option<RemoteAddr> {
        let bytes = blocks * BLOCK_SIZE;
        if bytes > self.segment_size {
            return None;
        }
        let node = self.node_mut(mn_id);
        let offset = node
            .parked
            .take(bytes)
            .or_else(|| node.carve_segment(bytes))?;
        Some(self.grant(client, mn_id, offset, blocks))
    }

    /// `blocks` on `mn_id`: local resources first, then a segment `ALLOC`.
    fn blocks_at(&mut self, client: &DmClient, mn_id: u16, blocks: u64) -> DmResult<RemoteAddr> {
        let bytes = blocks * BLOCK_SIZE;
        if bytes > self.segment_size {
            return Err(DmError::AllocationTooLarge {
                requested: bytes,
                max: self.segment_size,
            });
        }
        if let Some(addr) = self.local_at(client, mn_id, blocks) {
            return Ok(addr);
        }
        let segment_size = self.segment_size;
        let segment = AllocService::alloc(client, mn_id, segment_size)?;
        let node = self.node_mut(mn_id);
        node.open_segment(segment..segment + segment_size);
        let offset = node
            .carve_segment(bytes)
            .expect("a fresh segment holds any ask within the segment size");
        Ok(self.grant(client, mn_id, offset, blocks))
    }

    /// Allocates `size` bytes, preferring `preferred` and falling back to
    /// the other active nodes; per node, local resources (parked ranges,
    /// the open segment) come before a segment RPC — so the stripe-local
    /// preference wins whenever the preferred node has any room at all.
    ///
    /// Returns [`DmError::OutOfMemory`] only when every active node fails;
    /// the caller is expected to evict and retry.
    pub fn alloc_on(
        &mut self,
        client: &DmClient,
        preferred: u16,
        size: usize,
    ) -> DmResult<RemoteAddr> {
        let blocks = self.ask(size);
        let mut last_err = DmError::OutOfMemory {
            requested: size as u64,
            available: 0,
        };
        for mn in fallback(&Arc::clone(&self.active), preferred) {
            match self.blocks_at(client, mn, blocks) {
                Err(e @ DmError::OutOfMemory { .. }) => last_err = e,
                done => return done,
            }
        }
        Err(last_err)
    }

    /// Allocates `size` bytes on `node` alone — local resources, then a
    /// segment RPC — for a placement worth nothing on any other node.
    pub fn alloc_at(&mut self, client: &DmClient, node: u16, size: usize) -> DmResult<RemoteAddr> {
        let blocks = self.ask(size);
        self.blocks_at(client, node, blocks)
    }

    /// Allocates from local resources only (no RPC), preferring `preferred`
    /// — the memory-pressure path that recycles evicted blocks wherever
    /// they live.  Once the pool is full a segment `ALLOC` is doomed to
    /// fail, so recycling via eviction first keeps the doomed RPC (and its
    /// round trip) off the data path.
    pub fn alloc_local_on(
        &mut self,
        client: &DmClient,
        preferred: u16,
        size: usize,
    ) -> Option<RemoteAddr> {
        let blocks = self.ask(size);
        fallback(&Arc::clone(&self.active), preferred)
            .find_map(|mn| self.local_at(client, mn, blocks))
    }

    /// Whether [`StripedAllocator::alloc_local_on`] would serve `size`
    /// bytes right now — i.e. whether an evicting client still holds a
    /// spare for its next allocation (a probe: nothing is handed out).
    pub fn can_alloc_local(&self, size: usize) -> bool {
        let bytes = blocks_for(size) * BLOCK_SIZE;
        bytes <= self.segment_size
            && self.active.iter().any(|&mn| {
                self.per_node.get(mn as usize).is_some_and(|node| {
                    node.segment.end - node.segment.start >= bytes || node.parked.fits(bytes)
                })
            })
    }

    /// Pressure-path backstop: asks the active nodes for an exact-size
    /// range (preferred node first, one RPC each), bypassing the open
    /// segment.  Succeeds when ranges released by other clients can serve
    /// this request even though no node can spare a whole segment — the
    /// node serves them back out best fit at any size.
    pub fn alloc_exact_on(
        &mut self,
        client: &DmClient,
        preferred: u16,
        size: usize,
    ) -> Option<RemoteAddr> {
        let blocks = self.ask(size);
        fallback(&Arc::clone(&self.active), preferred).find_map(|mn| {
            let offset = AllocService::alloc(client, mn, blocks * BLOCK_SIZE).ok()?;
            Some(self.grant(client, mn, offset, blocks))
        })
    }

    /// Releases parked ranges back to their memory nodes (largest first)
    /// until at most `keep_blocks` blocks stay parked per node.  Returns the
    /// total number of blocks released.
    ///
    /// With many clients sharing one full pool this is what keeps eviction
    /// churn globally usable: ranges hoarded on one client are invisible to
    /// every other client, but once returned, the node merges them across
    /// clients and serves them back out to whoever asks.
    pub fn release_excess(&mut self, client: &DmClient, keep_blocks: u64) -> u64 {
        (0..self.per_node.len())
            .map(|mn| self.release_at(client, mn as u16, keep_blocks))
            .sum()
    }

    fn release_at(&mut self, client: &DmClient, mn_id: u16, keep_blocks: u64) -> u64 {
        let node = &mut self.per_node[mn_id as usize];
        let mut released = 0;
        while node.parked.total() > keep_blocks * BLOCK_SIZE {
            let (offset, len) = node
                .parked
                .pop_largest()
                .expect("free bytes lie in a range");
            if AllocService::free(client, mn_id, offset, len).is_err() {
                // Node unreachable (e.g. decommissioned): park the range
                // again and stop — nothing else will get through either.
                node.park(offset, len);
                break;
            }
            released += len / BLOCK_SIZE;
        }
        released
    }

    /// Returns a previously allocated range to the node it lives on: the
    /// blocks leave the resident gauge and park here, merging with adjacent
    /// parked neighbours so recycled fragments grow back into spans that
    /// can serve any size.
    ///
    /// Then caps the hoard: each node keeps at most as many blocks parked
    /// as it has live (but at least 4, and at least the latest ask, so an
    /// evicting client does not hand the blocks it just freed straight back
    /// to the node while it still needs them) and releases the rest.
    /// Scaling the cap with the live set makes the policy self-balancing: a
    /// client recycling into its own allocations (parked stays a fraction
    /// of live) never pays a release RPC, while a *net evictor* — frees
    /// greatly outpacing its own allocations, live shrinking towards zero —
    /// steadily returns memory for the other clients to claim.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps one already parked (a double free).
    pub fn free(&mut self, client: &DmClient, addr: RemoteAddr, size: usize) {
        let blocks = blocks_for(size);
        client
            .pool()
            .stats()
            .record_resident_free(addr.mn_id, blocks * BLOCK_SIZE);
        let node = self.node_mut(addr.mn_id);
        node.park(addr.offset, blocks * BLOCK_SIZE);
        node.live_blocks = node.live_blocks.saturating_sub(blocks);
        for mn in 0..self.per_node.len() {
            let keep = self.per_node[mn].live_blocks.max(4).max(self.latest_ask);
            self.release_at(client, mn as u16, keep);
        }
    }

    /// Total segments fetched across all nodes.
    pub fn segments_fetched(&self) -> u64 {
        self.per_node.iter().map(|node| node.segments_fetched).sum()
    }

    /// Total blocks currently handed out across all nodes.
    pub fn live_blocks(&self) -> u64 {
        self.per_node.iter().map(|node| node.live_blocks).sum()
    }

    /// Total blocks parked across all nodes.
    pub fn free_blocks(&self) -> u64 {
        self.per_node
            .iter()
            .map(|node| node.parked.total() / BLOCK_SIZE)
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

    /// An allocator over node 0 alone, fetching `segment_size`-byte
    /// segments.
    fn one_node(segment_size: u64) -> StripedAllocator {
        StripedAllocator::new(&[0], segment_size)
    }

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(64), 1);
        assert_eq!(blocks_for(65), 2);
        assert_eq!(blocks_for(256), 4);
        assert_eq!(blocks_for(0), 1);
    }

    #[test]
    fn alloc_returns_disjoint_block_aligned_addresses() {
        let (_pool, client) = setup();
        let mut alloc = one_node(1 << 20);
        let a = alloc.alloc_at(&client, 0, 256).unwrap();
        let b = alloc.alloc_at(&client, 0, 256).unwrap();
        assert_eq!(a.offset % BLOCK_SIZE, 0);
        assert_eq!(b.offset % BLOCK_SIZE, 0);
        assert!(b.offset >= a.offset + 256 || a.offset >= b.offset + 256);
        assert_eq!(alloc.segments_fetched(), 1);
    }

    #[test]
    fn freed_blocks_are_recycled_without_rpc() {
        let (_pool, client) = setup();
        let mut alloc = one_node(1 << 20);
        let a = alloc.alloc_at(&client, 0, 256).unwrap();
        alloc.free(&client, a, 256);
        let fetched = alloc.segments_fetched();
        let b = alloc.alloc_at(&client, 0, 256).unwrap();
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
        alloc.free(&client, a, 256);
        assert!(alloc.can_alloc_local(256));
        assert!(!alloc.can_alloc_local(320), "the parked range is too small");
        assert!(alloc.alloc_local_on(&client, 0, 256).is_some());
        assert!(!alloc.can_alloc_local(64), "a probe hands nothing out");
    }

    #[test]
    fn adjacent_frees_coalesce_into_larger_ranges() {
        let (_pool, client) = setup();
        let mut alloc = one_node(4096);
        // Three adjacent 1-block carves, freed in scrambled order.
        let a = alloc.alloc_at(&client, 0, 64).unwrap();
        let b = alloc.alloc_at(&client, 0, 64).unwrap();
        let c = alloc.alloc_at(&client, 0, 64).unwrap();
        // Burn the rest of the segment so the merged range is the only way
        // to serve a 3-block request.
        while alloc.alloc_local_on(&client, 0, 64).is_some() {}
        alloc.free(&client, b, 64);
        alloc.free(&client, a, 64);
        alloc.free(&client, c, 64);
        assert_eq!(alloc.free_blocks(), 3);
        let merged = alloc
            .alloc_local_on(&client, 0, 192)
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
        let mut alloc = one_node(4096);
        let a = alloc.alloc_at(&client, 0, 4096).unwrap();
        alloc.free(&client, a, 4096);
        let first = alloc
            .alloc_local_on(&client, 0, 64)
            .expect("split serves the small request");
        assert_eq!(first, a, "the split hands out the front of the free block");
        // The remainder keeps serving further requests, splitting down.
        for _ in 0..63 {
            assert!(
                alloc.alloc_local_on(&client, 0, 64).is_some(),
                "remainder must keep serving"
            );
        }
        assert!(
            alloc.alloc_local_on(&client, 0, 64).is_none(),
            "all 64 blocks handed out"
        );
        assert_eq!(alloc.live_blocks(), 64);
    }

    #[test]
    fn excess_free_blocks_are_released_and_reused_by_other_clients() {
        // Client A's eviction churn fills its local free ranges; once
        // released, client B's segment ask is served from them even though
        // the node's bump cursor is exhausted.
        let pool = MemoryPool::new(DmConfig::small().with_capacity(8192));
        let client = pool.connect();
        let mut a = one_node(4096);
        let addr = a.alloc_at(&client, 0, 4096).unwrap();
        // Burn the remaining fresh memory so only released ranges can serve.
        while a.alloc_at(&client, 0, 4096).is_ok() {}
        a.free(&client, addr, 4096);
        assert_eq!(a.release_excess(&client, 0), 64);
        assert_eq!(a.free_blocks(), 0);
        let mut b = one_node(4096);
        let got = b.alloc_at(&client, 0, 4096).unwrap();
        assert_eq!(got, addr, "B's segment is carved from A's released range");
    }

    #[test]
    fn exact_size_asks_are_served_when_whole_segments_are_not() {
        // The node holds only a small released range: a whole-segment ask
        // fails, the exact-size pressure backstop succeeds.
        let pool = MemoryPool::new(DmConfig::small().with_capacity(8192));
        let client = pool.connect();
        let mut a = one_node(4096);
        let addr = a.alloc_at(&client, 0, 4096).unwrap();
        while a.alloc_at(&client, 0, 4096).is_ok() {}
        a.free(&client, addr, 256);
        assert_eq!(a.release_excess(&client, 0), 4);
        let mut b = one_node(4096);
        assert!(matches!(
            b.alloc_at(&client, 0, 64),
            Err(DmError::OutOfMemory { .. })
        ));
        let got = b.alloc_exact_on(&client, 0, 256).unwrap();
        assert_eq!(got, addr);
        assert_eq!(b.live_blocks(), 4);
    }

    #[test]
    fn release_excess_keeps_the_requested_working_set() {
        let (_pool, client) = setup();
        let mut alloc = one_node(4096);
        let a = alloc.alloc_at(&client, 0, 1024).unwrap();
        let b = alloc.alloc_at(&client, 0, 1024).unwrap();
        // A live 32-block object keeps the hoard cap of `free` (at least as
        // many blocks parked as live) from releasing anything below.
        let _held = alloc.alloc_at(&client, 0, 2048).unwrap();
        alloc.free(&client, a, 1024);
        // One 16-block range parked; keep_blocks=16 means nothing to do.
        assert_eq!(alloc.release_excess(&client, 16), 0);
        alloc.free(&client, b, 1024);
        // 32 parked (coalesced), keep 8: the merged range is released whole.
        assert_eq!(alloc.release_excess(&client, 8), 32);
        assert_eq!(alloc.free_blocks(), 0);
    }

    /// An ask that does not fit the open segment's tail opens a new
    /// segment, and the tail parks for the next ask that fits it.
    #[test]
    fn a_fresh_segment_parks_the_old_segments_tail() {
        let (_pool, client) = setup();
        let mut alloc = one_node(512);
        let first = alloc.alloc_at(&client, 0, 192).unwrap();
        alloc.alloc_at(&client, 0, 192).unwrap();
        let third = alloc.alloc_at(&client, 0, 192).unwrap();
        assert_eq!(alloc.segments_fetched(), 2);
        assert_eq!(alloc.free_blocks(), 2);
        let tail = alloc.alloc_at(&client, 0, 128).unwrap();
        assert_eq!(tail.offset, first.offset + 384, "served from the tail");
        assert_ne!(tail.offset, third.offset + 192);
        assert_eq!(alloc.free_blocks(), 0);
    }

    #[test]
    fn allocation_larger_than_segment_is_rejected() {
        let (_pool, client) = setup();
        let mut alloc = one_node(1024);
        assert!(matches!(
            alloc.alloc_at(&client, 0, 4096),
            Err(DmError::AllocationTooLarge { .. })
        ));
    }

    #[test]
    fn exhausting_the_node_reports_oom() {
        let pool = MemoryPool::new(DmConfig::small().with_capacity(256 * 1024));
        let client = pool.connect();
        let mut alloc = one_node(64 * 1024);
        let mut failures = 0;
        for _ in 0..1024 {
            if matches!(
                alloc.alloc_at(&client, 0, 60 * 1024),
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
        let mut alloc = one_node(1 << 20);
        let a = alloc.alloc_at(&client, 0, 128).unwrap();
        assert_eq!(alloc.live_blocks(), 2);
        alloc.free(&client, a, 128);
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

        let mut alloc = one_node(4096);
        let a = alloc.alloc_at(&client, 0, 128).unwrap();
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
        alloc.free(&client, a, 256);
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
        alloc.free(&client, resident, 256);
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

    /// A double `FREE` and a `FREE` past the node's high-water mark fail,
    /// and the node's store of returned ranges is left as it was.
    #[test]
    fn a_bad_free_fails_and_leaves_the_store_unchanged() {
        let (pool, client) = setup();
        let node = pool.node(0).unwrap();
        let offset = AllocService::alloc(&client, 0, 4096).unwrap();
        AllocService::free(&client, 0, offset, 1024).unwrap();
        assert_eq!(node.free_range_bytes(), 1024);
        for (off, len) in [
            (offset, 1024),
            (offset + 512, 1024),
            (node.used_bytes() - 64, 128),
            (u64::MAX - 63, 64),
            (offset, u64::MAX),
        ] {
            assert!(matches!(
                AllocService::free(&client, 0, off, len),
                Err(DmError::RpcFailed { .. })
            ));
            assert_eq!(node.free_range_bytes(), 1024);
        }
        assert_eq!(
            node.owned_segments(client.client_id()),
            vec![(offset + 1024, 3072)]
        );
    }

    /// Every grant raises the granting node's resident gauge by its blocks
    /// and every free lowers it; releasing parked blocks moves nothing.
    #[test]
    fn the_allocator_books_the_resident_gauge() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let client = pool.connect();
        let resident = || [0, 1].map(|mn| pool.stats().resident_bytes_on(mn));
        let mut alloc = StripedAllocator::new(pool.topology().active(), 4096);
        let a = alloc.alloc_on(&client, 1, 200).unwrap();
        assert_eq!((a.mn_id, resident()), (1, [0, 256]));
        let b = alloc.alloc_at(&client, 0, 100).unwrap();
        assert_eq!((b.mn_id, resident()), (0, [128, 256]));
        alloc.free(&client, a, 200);
        assert_eq!(resident(), [128, 0]);
        let c = alloc.alloc_local_on(&client, 1, 64).unwrap();
        assert_eq!((c.mn_id, resident()), (1, [128, 64]));
        let d = alloc.alloc_exact_on(&client, 0, 300).unwrap();
        assert_eq!((d.mn_id, resident()), (0, [128 + 320, 64]));
        alloc.free(&client, b, 100);
        assert!(alloc.release_excess(&client, 0) > 0);
        assert_eq!(resident(), [320, 64]);
        alloc.free(&client, c, 64);
        alloc.free(&client, d, 300);
        assert_eq!(resident(), [0, 0]);
    }

    /// The free-range rules written out naively: a sorted `Vec` of
    /// coalesced ranges, scanned whole on every operation.
    #[derive(Default)]
    struct NaiveRanges(Vec<(u64, u64)>);

    impl NaiveRanges {
        fn insert(&mut self, offset: u64, len: u64) -> bool {
            if self
                .0
                .iter()
                .any(|&(o, l)| offset < o + l && o < offset + len)
            {
                return false;
            }
            self.0.push((offset, len));
            self.0.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for (o, l) in self.0.drain(..) {
                match merged.last_mut() {
                    Some((po, pl)) if *po + *pl == o => *pl += l,
                    _ => merged.push((o, l)),
                }
            }
            self.0 = merged;
            true
        }

        fn take(&mut self, len: u64) -> Option<u64> {
            let i = (0..self.0.len())
                .filter(|&i| self.0[i].1 >= len)
                .min_by_key(|&i| (self.0[i].1, self.0[i].0))?;
            let (o, l) = self.0[i];
            if l == len {
                self.0.remove(i);
            } else {
                self.0[i] = (o + len, l - len);
            }
            Some(o)
        }

        fn pop_largest(&mut self) -> Option<(u64, u64)> {
            let i = (0..self.0.len()).max_by_key(|&i| (self.0[i].1, self.0[i].0))?;
            Some(self.0.remove(i))
        }
    }

    #[test]
    fn free_ranges_match_a_naive_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        let mut ranges = FreeRanges::default();
        let mut naive = NaiveRanges::default();
        for step in 0..5000 {
            let len = rng.gen_range(1..=6u64) * BLOCK_SIZE;
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    let offset = rng.gen_range(0..128u64) * BLOCK_SIZE;
                    assert_eq!(
                        ranges.insert(offset, len),
                        naive.insert(offset, len),
                        "step {step}: insert {offset}+{len}"
                    );
                }
                6..=8 => assert_eq!(ranges.take(len), naive.take(len), "step {step}"),
                _ => assert_eq!(ranges.pop_largest(), naive.pop_largest(), "step {step}"),
            }
            let listed: Vec<(u64, u64)> = ranges.ranges.iter().map(|(&o, &l)| (o, l)).collect();
            assert_eq!(listed, naive.0, "step {step}");
            assert_eq!(ranges.total(), naive.0.iter().map(|&(_, l)| l).sum::<u64>());
            assert_eq!(ranges.fits(len), naive.0.iter().any(|&(_, l)| l >= len));
        }
    }
}
