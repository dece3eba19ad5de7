//! A memory node (MN): a large memory arena plus a weak controller.
//!
//! The arena is stored as 8-byte atomic words so that concurrent clients can
//! issue real `CAS`/`FAA` operations against it.  Byte-granularity reads and
//! writes operate word-wise; partial-word writes use a CAS loop so writes to
//! *different* byte ranges sharing a word never clobber each other.

use crate::alloc::FreeRanges;
use crate::error::{DmError, DmResult};
use crate::rpc::RpcHandler;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Alignment (bytes) of all reservations and segment allocations.
pub const ALLOC_ALIGN: u64 = 64;

/// A single memory node in the pool.
pub struct MemoryNode {
    id: u16,
    words: Vec<AtomicU64>,
    capacity: u64,
    /// Bump cursor for reservations and fresh segments (in bytes).
    cursor: AtomicU64,
    /// Ranges returned by `FREE`, served best fit before the cursor is
    /// bumped.  Clients release odd-sized excess from their parked blocks,
    /// so the store must merge and split: it is the same coalescing store
    /// ([`crate::alloc`]'s `FreeRanges`) that parks those blocks client-side.
    free_ranges: Mutex<FreeRanges>,
    /// Registered controller services.
    handlers: RwLock<HashMap<u8, Arc<dyn RpcHandler>>>,
    /// Segment owner registry (offset → length, owner client id): which
    /// client each live segment range was granted to.  Crash recovery reads
    /// it back through [`MemoryNode::owned_segments`] to find a dead
    /// client's grants; frees trim it.
    seg_owners: Mutex<BTreeMap<u64, (u64, u32)>>,
    /// Set once the node is fully drained and removed from the pool; node
    /// handle lookups then fail instead of silently serving.
    decommissioned: AtomicBool,
}

impl MemoryNode {
    /// Creates a node with `capacity` bytes of memory.
    pub fn new(id: u16, capacity: u64) -> Self {
        let capacity = capacity.next_multiple_of(8);
        let num_words = (capacity / 8) as usize;
        let mut words = Vec::with_capacity(num_words);
        words.resize_with(num_words, || AtomicU64::new(0));
        MemoryNode {
            id,
            words,
            capacity,
            // Offset 0 is never handed out so that a packed address of 0 can
            // serve as the NULL pointer in hash-table slots.
            cursor: AtomicU64::new(ALLOC_ALIGN),
            free_ranges: Mutex::new(FreeRanges::default()),
            handlers: RwLock::new(HashMap::new()),
            seg_owners: Mutex::new(BTreeMap::new()),
            decommissioned: AtomicBool::new(false),
        }
    }

    /// Marks the node as removed from the pool (see
    /// [`crate::MemoryPool::remove_node`]).
    pub(crate) fn decommission(&self) {
        self.decommissioned.store(true, Ordering::Release);
    }

    /// Whether the node has been decommissioned.
    pub fn is_decommissioned(&self) -> bool {
        self.decommissioned.load(Ordering::Acquire)
    }

    /// This node's identifier.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Capacity of the node in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved or allocated (high-water mark).
    pub fn used_bytes(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    fn check_range(&self, offset: u64, len: usize) -> DmResult<()> {
        if offset
            .checked_add(len as u64)
            .map(|end| end <= self.capacity)
            .unwrap_or(false)
        {
            Ok(())
        } else {
            Err(DmError::OutOfBounds {
                mn_id: self.id,
                offset,
                len,
                capacity: self.capacity,
            })
        }
    }

    /// Reads `len` bytes starting at `offset`.
    pub fn read(&self, offset: u64, len: usize) -> DmResult<Vec<u8>> {
        self.check_range(offset, len)?;
        let mut out = vec![0u8; len];
        self.read_into(offset, &mut out)?;
        Ok(out)
    }

    /// Reads `buf.len()` bytes starting at `offset` into `buf`.
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) -> DmResult<()> {
        self.check_range(offset, buf.len())?;
        let mut remaining = buf;
        let mut pos = offset;
        while !remaining.is_empty() {
            let word_idx = (pos / 8) as usize;
            let in_word = (pos % 8) as usize;
            let take = (8 - in_word).min(remaining.len());
            let word = self.words[word_idx].load(Ordering::Acquire).to_le_bytes();
            remaining[..take].copy_from_slice(&word[in_word..in_word + take]);
            remaining = &mut remaining[take..];
            pos += take as u64;
        }
        Ok(())
    }

    /// Writes `data` starting at `offset`.
    pub fn write(&self, offset: u64, data: &[u8]) -> DmResult<()> {
        self.check_range(offset, data.len())?;
        let mut remaining = data;
        let mut pos = offset;
        while !remaining.is_empty() {
            let word_idx = (pos / 8) as usize;
            let in_word = (pos % 8) as usize;
            let take = (8 - in_word).min(remaining.len());
            let slot = &self.words[word_idx];
            if take == 8 {
                let value = u64::from_le_bytes(remaining[..8].try_into().expect("8 bytes"));
                slot.store(value, Ordering::Release);
            } else {
                // Partial word: merge with a CAS loop so concurrent writers of
                // the other bytes in this word are not clobbered.
                loop {
                    let old = slot.load(Ordering::Acquire);
                    let mut bytes = old.to_le_bytes();
                    bytes[in_word..in_word + take].copy_from_slice(&remaining[..take]);
                    let new = u64::from_le_bytes(bytes);
                    if slot
                        .compare_exchange_weak(old, new, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        break;
                    }
                }
            }
            remaining = &remaining[take..];
            pos += take as u64;
        }
        Ok(())
    }

    fn atomic_word(&self, offset: u64) -> DmResult<&AtomicU64> {
        if !offset.is_multiple_of(8) {
            return Err(DmError::Unaligned { offset });
        }
        self.check_range(offset, 8)?;
        Ok(&self.words[(offset / 8) as usize])
    }

    /// Atomically loads the 8-byte word at `offset`.
    pub fn load_u64(&self, offset: u64) -> DmResult<u64> {
        Ok(self.atomic_word(offset)?.load(Ordering::Acquire))
    }

    /// Atomically stores the 8-byte word at `offset`.
    pub fn store_u64(&self, offset: u64, value: u64) -> DmResult<()> {
        self.atomic_word(offset)?.store(value, Ordering::Release);
        Ok(())
    }

    /// Atomic compare-and-swap on the 8-byte word at `offset`.
    ///
    /// Returns the value observed before the operation; the swap succeeded
    /// iff that value equals `expected`.
    pub fn cas(&self, offset: u64, expected: u64, new: u64) -> DmResult<u64> {
        let word = self.atomic_word(offset)?;
        match word.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(old) => Ok(old),
            Err(old) => Ok(old),
        }
    }

    /// Atomic fetch-and-add on the 8-byte word at `offset`.
    ///
    /// Returns the value observed before the addition.
    pub fn faa(&self, offset: u64, delta: u64) -> DmResult<u64> {
        Ok(self.atomic_word(offset)?.fetch_add(delta, Ordering::AcqRel))
    }

    /// Reserves `size` bytes (setup-time allocation, e.g. hash-table space).
    ///
    /// Reservations never return to the node; use segments for recyclable
    /// memory.
    pub fn reserve(&self, size: u64) -> DmResult<u64> {
        self.allocate_raw(size)
    }

    /// Allocates a segment of `size` bytes, serving from the returned
    /// ranges (best fit, splitting the remainder back) before bumping the
    /// cursor for fresh memory, and records `owner` (the requesting
    /// client's id) in the segment owner registry, so a crash-recovery
    /// pass can later find every grant a dead client held.
    pub fn alloc_segment_for(&self, size: u64, owner: u32) -> DmResult<u64> {
        let size = size.next_multiple_of(ALLOC_ALIGN);
        let returned = self.free_ranges.lock().take(size);
        let offset = returned.map_or_else(|| self.allocate_raw(size), Ok)?;
        self.seg_owners.lock().insert(offset, (size, owner));
        Ok(offset)
    }

    /// Live segment grants currently registered to `owner`, as
    /// `(offset, length)` pairs — the crash-recovery pass's view of what a
    /// dead client might leak.  Frees ([`MemoryNode::free_segment`]) trim
    /// the registry, so a fully returned grant no longer appears.
    pub fn owned_segments(&self, owner: u32) -> Vec<(u64, u64)> {
        self.seg_owners
            .lock()
            .iter()
            .filter(|&(_, &(_, o))| o == owner)
            .map(|(&off, &(len, _))| (off, len))
            .collect()
    }

    /// Whether `[offset, offset + size)` is still fully covered by granted
    /// (un-freed) segment space, regardless of which client holds the
    /// grants.  Crash recovery uses this to tell a journalled allocation
    /// the node still charges (an orphan to reclaim — possibly carved from
    /// a *foreign* client's grant via a locally parked range) from one a
    /// survivor already returned to the node.
    pub fn range_granted(&self, offset: u64, size: u64) -> bool {
        let size = size.next_multiple_of(ALLOC_ALIGN);
        let end = offset + size;
        let owners = self.seg_owners.lock();
        // Grants are sorted and non-overlapping: start from the one
        // straddling in from the left (if any) and require contiguous
        // coverage up to `end`.
        let start = owners
            .range(..=offset)
            .next_back()
            .map_or(offset, |(&g_off, _)| g_off);
        let mut cursor = offset;
        for (&g_off, &(g_len, _)) in owners.range(start..end) {
            if g_off > cursor {
                return false;
            }
            cursor = cursor.max(g_off + g_len);
            if cursor >= end {
                return true;
            }
        }
        false
    }

    /// Returns a range previously handed out by [`MemoryNode::alloc_segment_for`]
    /// (whole segments or any aligned sub-range of one), merging it with
    /// adjacent free neighbours.  Ranges released by different clients thus
    /// coalesce here even when neither client could merge them locally.
    ///
    /// Fails with [`DmError::RpcFailed`], changing nothing, for a range
    /// past the high-water mark ([`MemoryNode::used_bytes`]) or one
    /// overlapping a returned range (a double free): either would later
    /// grant the same bytes twice.
    pub fn free_segment(&self, offset: u64, size: u64) -> DmResult<()> {
        let size = size
            .checked_next_multiple_of(ALLOC_ALIGN)
            .unwrap_or(u64::MAX);
        let refuse = |why| {
            Err(DmError::RpcFailed {
                reason: format!("FREE of {size} bytes at {offset:#x} {why}"),
            })
        };
        let end = offset.checked_add(size);
        if end.is_none_or(|end| end > self.used_bytes()) {
            return refuse("runs past the high-water mark");
        }
        // The store stays locked until the registry is trimmed, so no grant
        // of this range can be registered before the trim.
        let mut ranges = self.free_ranges.lock();
        if !ranges.insert(offset, size) {
            return refuse("overlaps a free range");
        }
        self.trim_owner_registry(offset, size);
        Ok(())
    }

    /// Total bytes sitting on the returned-range store (free to re-allocate).
    pub fn free_range_bytes(&self) -> u64 {
        self.free_ranges.lock().total()
    }

    /// Removes `[offset, offset + size)` from the segment owner registry,
    /// splitting grants the freed range only partially covers (clients
    /// return odd-sized sub-ranges of their grants).
    fn trim_owner_registry(&self, offset: u64, size: u64) {
        let end = offset.saturating_add(size);
        let mut owners = self.seg_owners.lock();
        // Walk right-to-left from the freed range's end: grants in the
        // range plus the one straddling in from the left.  Grants never
        // overlap each other, so the first one ending at/before `offset`
        // bounds the walk.
        let touched: Vec<(u64, u64, u32)> = owners
            .range(..end)
            .rev()
            .take_while(|&(&g_off, &(g_len, _))| g_off >= offset || g_off + g_len > offset)
            .map(|(&g_off, &(g_len, g_owner))| (g_off, g_len, g_owner))
            .collect();
        for (g_off, g_len, g_owner) in touched {
            owners.remove(&g_off);
            if g_off < offset {
                owners.insert(g_off, (offset - g_off, g_owner));
            }
            if g_off + g_len > end {
                owners.insert(end, (g_off + g_len - end, g_owner));
            }
        }
    }

    fn allocate_raw(&self, size: u64) -> DmResult<u64> {
        let size = size.next_multiple_of(ALLOC_ALIGN).max(ALLOC_ALIGN);
        loop {
            let current = self.cursor.load(Ordering::Relaxed);
            let end = current.checked_add(size).ok_or(DmError::OutOfMemory {
                requested: size,
                available: 0,
            })?;
            if end > self.capacity {
                return Err(DmError::OutOfMemory {
                    requested: size,
                    available: self.capacity.saturating_sub(current),
                });
            }
            if self
                .cursor
                .compare_exchange_weak(current, end, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(current);
            }
        }
    }

    /// Registers (or replaces) the controller service with id `service`.
    pub fn register_handler(&self, service: u8, handler: Arc<dyn RpcHandler>) {
        self.handlers.write().insert(service, handler);
    }

    /// Dispatches an RPC to the controller service `service`, its reply
    /// written into the caller's `reply` buffer ([`RpcHandler::handle`]);
    /// returns the reply length and the controller CPU nanoseconds.
    pub fn dispatch_rpc(
        &self,
        service: u8,
        request: &[u8],
        reply: &mut [u8],
    ) -> DmResult<(usize, u64)> {
        let handler = self.handlers.read().get(&service).cloned();
        handler
            .ok_or(DmError::NoSuchService { service })?
            .handle(self, request, reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let node = MemoryNode::new(0, 4096);
        node.write(64, b"disaggregated").unwrap();
        assert_eq!(node.read(64, 13).unwrap(), b"disaggregated");
    }

    #[test]
    fn unaligned_write_and_read() {
        let node = MemoryNode::new(0, 4096);
        node.write(67, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
            .unwrap();
        assert_eq!(
            node.read(67, 11).unwrap(),
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
        );
        // Neighbouring bytes are untouched.
        assert_eq!(node.read(64, 3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn out_of_bounds_read_fails() {
        let node = MemoryNode::new(3, 128);
        let err = node.read(120, 16).unwrap_err();
        assert!(matches!(err, DmError::OutOfBounds { mn_id: 3, .. }));
    }

    #[test]
    fn cas_success_and_failure() {
        let node = MemoryNode::new(0, 4096);
        node.store_u64(128, 42).unwrap();
        let old = node.cas(128, 42, 100).unwrap();
        assert_eq!(old, 42);
        assert_eq!(node.load_u64(128).unwrap(), 100);
        // Failed CAS returns the current value and does not modify memory.
        let old = node.cas(128, 42, 7).unwrap();
        assert_eq!(old, 100);
        assert_eq!(node.load_u64(128).unwrap(), 100);
    }

    #[test]
    fn cas_requires_alignment() {
        let node = MemoryNode::new(0, 4096);
        assert!(matches!(
            node.cas(127, 0, 1),
            Err(DmError::Unaligned { offset: 127 })
        ));
    }

    #[test]
    fn faa_accumulates() {
        let node = MemoryNode::new(0, 4096);
        assert_eq!(node.faa(256, 5).unwrap(), 0);
        assert_eq!(node.faa(256, 3).unwrap(), 5);
        assert_eq!(node.load_u64(256).unwrap(), 8);
    }

    #[test]
    fn reserve_is_aligned_and_disjoint() {
        let node = MemoryNode::new(0, 1 << 20);
        let a = node.reserve(100).unwrap();
        let b = node.reserve(100).unwrap();
        assert_eq!(a % ALLOC_ALIGN, 0);
        assert_eq!(b % ALLOC_ALIGN, 0);
        assert!(b >= a + 128);
        assert_ne!(a, 0, "offset 0 is reserved as the NULL address");
    }

    #[test]
    fn reserve_exhausts_capacity() {
        let node = MemoryNode::new(0, 1024);
        let mut count = 0;
        while node.reserve(256).is_ok() {
            count += 1;
            assert!(count < 100, "reserve never failed");
        }
        assert!(count >= 2);
        assert!(matches!(
            node.reserve(256).unwrap_err(),
            DmError::OutOfMemory { .. }
        ));
    }

    #[test]
    fn segments_are_recycled() {
        let node = MemoryNode::new(0, 1 << 20);
        let a = node.alloc_segment_for(4096, 0).unwrap();
        node.free_segment(a, 4096).unwrap();
        let b = node.alloc_segment_for(4096, 0).unwrap();
        assert_eq!(a, b, "freed segment should be reused");
    }

    #[test]
    fn returned_ranges_coalesce_and_split() {
        // Two clients return adjacent halves of a segment independently; the
        // store merges them, and a full-segment request is served from the
        // merged range even though neither returned piece was big enough.
        let node = MemoryNode::new(0, 16 * 1024);
        let seg = node.alloc_segment_for(4096, 0).unwrap();
        // Burn the rest of the node so only the returned ranges can serve.
        while node.alloc_segment_for(4096, 0).is_ok() {}
        node.free_segment(seg, 2048).unwrap();
        node.free_segment(seg + 2048, 2048).unwrap();
        assert_eq!(node.free_range_bytes(), 4096);
        assert_eq!(node.alloc_segment_for(4096, 0).unwrap(), seg);
        // And a big range splits down for a smaller request.
        node.free_segment(seg, 4096).unwrap();
        assert_eq!(node.alloc_segment_for(64, 0).unwrap(), seg);
        assert_eq!(node.alloc_segment_for(64, 0).unwrap(), seg + 64);
        assert_eq!(node.free_range_bytes(), 4096 - 128);
    }

    #[test]
    fn rpc_dispatch_and_missing_service() {
        let node = MemoryNode::new(0, 4096);
        let mut reply = [0u8; 8];
        assert!(matches!(
            node.dispatch_rpc(9, b"x", &mut reply),
            Err(DmError::NoSuchService { service: 9 })
        ));
        node.register_handler(
            9,
            Arc::new(|_node: &MemoryNode, req: &[u8], reply: &mut [u8]| {
                let out = crate::rpc::wire::reply(reply, req.len())?;
                out.iter_mut()
                    .zip(req.iter().rev())
                    .for_each(|(o, r)| *o = *r);
                Ok((req.len(), 500))
            }),
        );
        assert_eq!(node.dispatch_rpc(9, b"abc", &mut reply), Ok((3, 500)));
        assert_eq!(&reply[..3], b"cba");
    }

    #[test]
    fn concurrent_faa_is_atomic() {
        let node = Arc::new(MemoryNode::new(0, 4096));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let node = Arc::clone(&node);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    node.faa(512, 1).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(node.load_u64(512).unwrap(), 80_000);
    }

    #[test]
    fn concurrent_partial_writes_do_not_clobber() {
        // Two threads repeatedly write adjacent 4-byte halves of one word.
        let node = Arc::new(MemoryNode::new(0, 4096));
        let a = Arc::clone(&node);
        let b = Arc::clone(&node);
        let t1 = std::thread::spawn(move || {
            for _ in 0..20_000 {
                a.write(1024, &[0xAA; 4]).unwrap();
            }
        });
        let t2 = std::thread::spawn(move || {
            for _ in 0..20_000 {
                b.write(1028, &[0xBB; 4]).unwrap();
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(node.read(1024, 4).unwrap(), vec![0xAA; 4]);
        assert_eq!(node.read(1028, 4).unwrap(), vec![0xBB; 4]);
    }
}
