//! The client-side frequency-counter (FC) cache (§4.2.2).
//!
//! Updating the stateful `freq` counter normally costs one `RDMA_FAA` per
//! access, which both consumes the memory node's RNIC message rate and
//! contends on the RNIC's internal atomics locks.  Borrowing the
//! write-combining idea from modern CPUs, the FC cache buffers the increments
//! per hash-table slot and only issues an `RDMA_FAA` when
//!
//! * an entry's buffered delta reaches the threshold *t*, or
//! * the cache is full and the entry with the oldest insertion time is
//!   evicted to make room.
//!
//! What an entry holds is also this client's freshest view of the counter:
//! eviction scores a sampled candidate on the slot's `freq` word *plus* the
//! increments still buffered for it ([`FcCache::pending_delta`]), so LFU does
//! not see the keys this client reads most up to `t − 1` accesses stale.  The
//! increments belong to the key that earned them, not to the slot: when one
//! of this client's CASes takes the key out of its slot — a won victim CAS,
//! a publish that puts another key there, an invalidation — the entry is
//! dropped ([`FcCache::discard`]) rather than flushed onto whichever key the
//! slot holds next.  A replace or a relocation keeps the key in its slot, and
//! its entry.

use crate::hash::FxHashMap;
use ditto_dm::RemoteAddr;

/// One pending flush: the frequency-field address and the buffered delta.
pub type FcFlush = (RemoteAddr, u64);

/// The flushes produced by one [`FcCache::record`] call — at most two (the
/// entry that hit the threshold plus a capacity eviction), stored inline so
/// the hot path never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FcFlushes {
    items: [Option<FcFlush>; 2],
    len: usize,
}

impl FcFlushes {
    fn push(&mut self, flush: FcFlush) {
        debug_assert!(self.len < 2);
        self.items[self.len] = Some(flush);
        self.len += 1;
    }

    /// Number of flushes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no flush is due.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the flushes into a `Vec` (test/diagnostic convenience).
    pub fn to_vec(self) -> Vec<FcFlush> {
        self.into_iter().collect()
    }
}

impl IntoIterator for FcFlushes {
    type Item = FcFlush;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<FcFlush>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().flatten()
    }
}

#[derive(Debug, Clone, Copy)]
struct FcEntry {
    delta: u64,
    inserted_seq: u64,
}

/// Most map entries [`FcCache::new`] reserves up front: a larger `capacity`
/// (it comes from the configured `fc_cache_mb`) grows the map as it fills.
const MAX_RESERVED: usize = 1 << 20;

/// Client-local write-combining buffer for frequency-counter updates.
#[derive(Debug)]
pub struct FcCache {
    entries: FxHashMap<u64, FcEntry>,
    threshold: u64,
    capacity: usize,
    seq: u64,
}

impl FcCache {
    /// Creates an FC cache flushing at `threshold` increments and holding at
    /// most `capacity` distinct entries.
    pub fn new(threshold: u64, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FcCache {
            // Sized once (one entry over `capacity` lives briefly, between an
            // insert and the eviction it forces) so that, up to
            // `MAX_RESERVED` entries, the map never rehashes.  Keys are
            // packed slot addresses, process-local and trusted.
            entries: FxHashMap::with_capacity_and_hasher(
                capacity.min(MAX_RESERVED) + 1,
                Default::default(),
            ),
            threshold: threshold.max(1),
            capacity,
            seq: 0,
        }
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total buffered (unflushed) increments.
    pub fn buffered_increments(&self) -> u64 {
        self.entries.values().map(|e| e.delta).sum()
    }

    /// Records one access to the frequency counter at `freq_addr`.
    ///
    /// Returns the flushes (at most two, inline — no allocation) the caller
    /// must apply with `RDMA_FAA`: one when this entry reached the
    /// threshold, and possibly one for an entry evicted to make room.
    pub fn record(&mut self, freq_addr: RemoteAddr) -> FcFlushes {
        let key = freq_addr.pack();
        let mut flushes = FcFlushes::default();
        self.seq += 1;
        let seq = self.seq;

        let entry = self.entries.entry(key).or_insert(FcEntry {
            delta: 0,
            inserted_seq: seq,
        });
        entry.delta += 1;
        if entry.delta >= self.threshold {
            flushes.push((freq_addr, entry.delta));
            self.entries.remove(&key);
        } else if self.entries.len() > self.capacity {
            // Evict the entry with the earliest insertion time (FIFO), as the
            // paper prescribes.
            if let Some((&oldest_key, _)) = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.inserted_seq)
            {
                let evicted = self.entries.remove(&oldest_key).expect("entry exists");
                flushes.push((RemoteAddr::unpack(oldest_key), evicted.delta));
            }
        }
        flushes
    }

    /// The increments currently buffered for `freq_addr` (0 when the entry
    /// flushed, was discarded or was never recorded): what the remote `freq`
    /// word does not show yet of this client's accesses to the slot's key.
    /// Eviction adds it to a candidate's `freq` when it scores the candidate
    /// (the module docs), and the local tier's admission rule reads it as its
    /// client-local hotness signal: a key whose counter has accumulated
    /// un-flushed increments is being re-read *by this client*, which is
    /// exactly the population worth caching locally.
    pub fn pending_delta(&self, freq_addr: RemoteAddr) -> u64 {
        self.entries.get(&freq_addr.pack()).map_or(0, |e| e.delta)
    }

    /// Drops the increments buffered for `freq_addr` unflushed: its slot's
    /// key just left the slot by one of this client's CASes, and a flush
    /// would count them to the slot's next key.  A no-op for an absent entry.
    pub fn discard(&mut self, freq_addr: RemoteAddr) {
        self.entries.remove(&freq_addr.pack());
    }

    /// Drains every buffered entry (e.g. at the end of an experiment) so no
    /// increments are lost.
    pub fn flush_all(&mut self) -> Vec<FcFlush> {
        let mut out: Vec<FcFlush> = self
            .entries
            .drain()
            .map(|(k, e)| (RemoteAddr::unpack(k), e.delta))
            .collect();
        out.sort_by_key(|(addr, _)| addr.pack());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> RemoteAddr {
        RemoteAddr::new(0, 1_000 + i * 40)
    }

    #[test]
    fn flushes_when_threshold_reached() {
        let mut fc = FcCache::new(3, 100);
        assert!(fc.record(addr(1)).is_empty());
        assert!(fc.record(addr(1)).is_empty());
        let flushes = fc.record(addr(1));
        assert_eq!(flushes.to_vec(), vec![(addr(1), 3)]);
        assert!(fc.is_empty());
    }

    #[test]
    fn reduces_faa_count_by_threshold_factor() {
        let mut fc = FcCache::new(10, 100);
        let mut faas = 0;
        for _ in 0..1_000 {
            faas += fc.record(addr(7)).len();
        }
        assert_eq!(faas, 100, "1000 accesses with t=10 must yield 100 FAAs");
    }

    #[test]
    fn capacity_overflow_evicts_oldest_entry() {
        let mut fc = FcCache::new(100, 2);
        assert!(fc.record(addr(1)).is_empty());
        assert!(fc.record(addr(2)).is_empty());
        // Inserting a third distinct entry evicts the oldest (addr 1).
        let flushes = fc.record(addr(3));
        assert_eq!(flushes.to_vec(), vec![(addr(1), 1)]);
        assert_eq!(fc.len(), 2);
    }

    #[test]
    fn flush_all_drains_every_entry() {
        let mut fc = FcCache::new(100, 10);
        fc.record(addr(1));
        fc.record(addr(1));
        fc.record(addr(2));
        let mut flushes = fc.flush_all();
        flushes.sort_by_key(|(a, _)| a.offset);
        assert_eq!(flushes, vec![(addr(1), 2), (addr(2), 1)]);
        assert!(fc.is_empty());
        assert_eq!(fc.buffered_increments(), 0);
    }

    #[test]
    fn no_increment_is_ever_lost() {
        let mut fc = FcCache::new(5, 3);
        let mut flushed = 0u64;
        let accesses = 10_000u64;
        for i in 0..accesses {
            for (_, delta) in fc.record(addr(i % 7)) {
                flushed += delta;
            }
        }
        for (_, delta) in fc.flush_all() {
            flushed += delta;
        }
        assert_eq!(flushed, accesses);
    }

    #[test]
    fn discard_drops_one_entry_and_leaves_the_rest_whole() {
        let mut fc = FcCache::new(5, 3);
        let (mut flushed, mut discarded) = (0u64, 0u64);
        let accesses = 10_000u64;
        for i in 0..accesses {
            for (_, delta) in fc.record(addr(i % 7)) {
                flushed += delta;
            }
            if i % 11 == 0 {
                let victim = i % 5;
                let before: Vec<u64> = (0..7).map(|j| fc.pending_delta(addr(j))).collect();
                fc.discard(addr(victim));
                for (j, &pending) in (0..7).zip(&before) {
                    let expected = if j == victim { 0 } else { pending };
                    assert_eq!(fc.pending_delta(addr(j)), expected, "entry {j}");
                }
                discarded += before[victim as usize];
            }
        }
        assert!(discarded > 0, "no discard dropped anything");
        for (_, delta) in fc.flush_all() {
            flushed += delta;
        }
        assert_eq!(
            flushed + discarded,
            accesses,
            "an undiscarded increment was lost"
        );
        // Discarding an absent entry is a no-op.
        fc.record(addr(1));
        fc.discard(addr(2));
        assert_eq!(fc.flush_all(), vec![(addr(1), 1)]);
    }

    /// A capacity no memory holds reserves a bounded map and still
    /// buffers, flushes at the threshold and drains.
    #[test]
    fn an_unbounded_capacity_records_and_flushes() {
        let mut fc = FcCache::new(10, usize::MAX);
        for _ in 0..9 {
            assert!(fc.record(addr(1)).is_empty());
        }
        assert!(fc.record(addr(2)).is_empty());
        assert_eq!(fc.record(addr(1)).to_vec(), vec![(addr(1), 10)]);
        assert_eq!(fc.flush_all(), vec![(addr(2), 1)]);
    }

    #[test]
    fn threshold_one_behaves_like_no_cache() {
        let mut fc = FcCache::new(1, 100);
        let flushes = fc.record(addr(4));
        assert_eq!(flushes.to_vec(), vec![(addr(4), 1)]);
    }
}
