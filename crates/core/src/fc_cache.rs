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
//!
//! A flush that falls due is not posted by the access that earned it: the
//! cache holds it ([`FcCache::defer`]) until the client's next hinted `Get`
//! takes it ([`FcCache::take_deferred`]) and posts its `RDMA_FAA`
//! unsignalled on its own ring, behind its slot and object READs — one
//! doorbell fewer than a ring of the FAA's own.  At most one access's
//! flushes wait: a second access with a due flush posts both its own and
//! the waiting ones at once.  Waiting flushes are still this client's
//! buffered increments: [`FcCache::pending_delta`] counts them,
//! [`FcCache::discard`] drops them and [`FcCache::flush_all`] drains them.

use crate::hash::FxHashMap;
use crate::inline::InlineVec;
use ditto_dm::RemoteAddr;
use std::collections::VecDeque;

/// One pending flush: the frequency-field address and the buffered delta.
pub type FcFlush = (RemoteAddr, u64);

/// The flushes produced by one [`FcCache::record`] call — at most two (the
/// entry that hit the threshold plus a capacity eviction), stored inline so
/// the hot path never allocates.
pub type FcFlushes = InlineVec<FcFlush, 2>;

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
    /// Every insertion since the first capacity eviction, oldest first, as
    /// (key, `inserted_seq`): the victim is the first pair whose entry is
    /// still that insertion.  A pair whose entry flushed or was discarded
    /// since is skipped there, or dropped when the queue is full.  Empty and
    /// unallocated until the map first overfills.
    order: VecDeque<(u64, u64)>,
    /// Due flushes waiting for the client's next hinted `Get`.
    deferred: FcFlushes,
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
            order: VecDeque::new(),
            deferred: FcFlushes::new(),
            threshold: threshold.max(1),
            capacity,
            seq: 0,
        }
    }

    /// Number of buffered entries, deferred flushes included.
    pub fn len(&self) -> usize {
        self.entries.len() + self.deferred.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total buffered (unflushed) increments, deferred flushes included.
    pub fn buffered_increments(&self) -> u64 {
        let deferred = self.deferred.iter().map(|&(_, delta)| delta);
        self.entries.values().map(|e| e.delta).chain(deferred).sum()
    }

    /// Records one access to the frequency counter at `freq_addr`.
    ///
    /// Returns the flushes (at most two, inline — no allocation) this access
    /// made due: one when this entry reached the threshold, and possibly one
    /// for an entry evicted to make room.  The caller applies them with
    /// `RDMA_FAA`, now or, [`Self::defer`]red, on a later ring.
    pub fn record(&mut self, freq_addr: RemoteAddr) -> FcFlushes {
        let key = freq_addr.pack();
        let mut flushes = FcFlushes::new();
        self.seq += 1;
        let seq = self.seq;

        let entry = self.entries.entry(key).or_insert(FcEntry {
            delta: 0,
            inserted_seq: seq,
        });
        entry.delta += 1;
        let (delta, inserted) = (entry.delta, entry.inserted_seq == seq);
        if inserted && self.order.capacity() > 0 {
            if self.order.len() == self.order.capacity() {
                let entries = &self.entries;
                self.order
                    .retain(|(k, s)| entries.get(k).is_some_and(|e| e.inserted_seq == *s));
            }
            self.order.push_back((key, seq));
        }
        if delta >= self.threshold {
            flushes.push((freq_addr, delta));
            self.entries.remove(&key);
        } else if self.entries.len() > self.capacity {
            if self.order.capacity() == 0 {
                // The first eviction orders the entries once.  Twice the map,
                // the queue is at least half stale pairs whenever it fills,
                // so it never grows and compacting is amortised O(1).
                self.order.reserve_exact(2 * self.entries.len());
                let entries = self.entries.iter().map(|(&k, e)| (k, e.inserted_seq));
                self.order.extend(entries);
                self.order
                    .make_contiguous()
                    .sort_unstable_by_key(|&(_, s)| s);
            }
            // Evict the entry with the earliest insertion time (FIFO), as the
            // paper prescribes.  Only an insert overfills the map, and the
            // entry it inserted is the newest of at least two.
            while let Some((oldest, seq)) = self.order.pop_front() {
                if self
                    .entries
                    .get(&oldest)
                    .is_some_and(|e| e.inserted_seq == seq)
                {
                    let evicted = self.entries.remove(&oldest).expect("entry exists");
                    flushes.push((RemoteAddr::unpack(oldest), evicted.delta));
                    break;
                }
            }
        }
        flushes
    }

    /// Holds `flushes`, made due by one access, for the client's next hinted
    /// `Get` to post ([`Self::take_deferred`]) — unless another access's
    /// still wait: those come back, and the caller posts them and `flushes`
    /// now, so that at most one access's flushes wait at a time.
    pub fn defer(&mut self, flushes: FcFlushes) -> FcFlushes {
        if self.deferred.is_empty() || flushes.is_empty() {
            self.deferred.extend(flushes);
            FcFlushes::new()
        } else {
            std::mem::take(&mut self.deferred)
        }
    }

    /// Takes the deferred flushes, for a hinted `Get` to post on its ring.
    pub fn take_deferred(&mut self) -> FcFlushes {
        std::mem::take(&mut self.deferred)
    }

    /// The increments currently buffered for `freq_addr`, a deferred flush's
    /// included (0 when it flushed, was discarded or was never recorded):
    /// what the remote `freq` word does not show yet of this client's
    /// accesses to the slot's key.  Eviction adds it to a candidate's `freq`
    /// when it scores the candidate (the module docs), and the local tier's
    /// admission rule reads it as its client-local hotness signal: a key
    /// whose counter has accumulated un-flushed increments is being re-read
    /// *by this client*, which is exactly the population worth caching
    /// locally.
    pub fn pending_delta(&self, freq_addr: RemoteAddr) -> u64 {
        let buffered = self.entries.get(&freq_addr.pack()).map_or(0, |e| e.delta);
        let deferred = self.deferred.iter().filter(|&&(addr, _)| addr == freq_addr);
        buffered + deferred.map(|&(_, delta)| delta).sum::<u64>()
    }

    /// Drops the increments buffered for `freq_addr` unflushed, a deferred
    /// flush's too: its slot's key just left the slot by one of this
    /// client's CASes, and a flush would count them to the slot's next key.
    /// A no-op for an absent entry.
    pub fn discard(&mut self, freq_addr: RemoteAddr) {
        self.entries.remove(&freq_addr.pack());
        if let Some(i) = self.deferred.iter().position(|&(a, _)| a == freq_addr) {
            self.deferred.swap_remove(i);
        }
    }

    /// Drains every buffered entry and deferred flush (e.g. at the end of an
    /// experiment) so no increments are lost.  A counter may appear twice: a
    /// deferred flush and the entry recorded since.
    pub fn flush_all(&mut self) -> Vec<FcFlush> {
        let mut out: Vec<FcFlush> = self
            .entries
            .drain()
            .map(|(k, e)| (RemoteAddr::unpack(k), e.delta))
            .chain(std::mem::take(&mut self.deferred))
            .collect();
        self.order.clear();
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

    /// A deferred flush is still buffered: `pending_delta` and
    /// `buffered_increments` count it, `discard` drops it and `flush_all`
    /// drains it, beside the entry recorded for its counter since.
    #[test]
    fn a_deferred_flush_stays_buffered_until_taken() {
        let mut fc = FcCache::new(2, 10);
        fc.record(addr(1));
        let due = fc.record(addr(1));
        assert!(fc.defer(due).is_empty(), "nothing else waits");
        fc.record(addr(1));
        assert_eq!(fc.pending_delta(addr(1)), 2 + 1);
        assert_eq!((fc.len(), fc.buffered_increments()), (2, 3));
        assert_eq!(fc.flush_all(), vec![(addr(1), 1), (addr(1), 2)]);
        assert!(fc.is_empty());

        fc.record(addr(2));
        let due = fc.record(addr(2));
        fc.defer(due);
        fc.discard(addr(2));
        assert_eq!(fc.pending_delta(addr(2)), 0);
        assert!(fc.take_deferred().is_empty());
    }

    /// At most one access's flushes wait: deferring a second access's hands
    /// the first's back, holding neither; deferring none holds on.
    #[test]
    fn a_second_deferral_hands_the_waiting_flushes_back() {
        let mut fc = FcCache::new(1, 10);
        let first = fc.record(addr(1));
        assert!(fc.defer(first).is_empty());
        assert!(fc.defer(FcFlushes::new()).is_empty());
        let second = fc.record(addr(2));
        assert_eq!(fc.defer(second)[..], first[..]);
        assert!(fc.take_deferred().is_empty());
        let third = fc.record(addr(3));
        fc.defer(third);
        assert_eq!(fc.take_deferred().to_vec(), vec![(addr(3), 1)]);
        assert!(fc.is_empty());
    }

    /// The capacity victim is the entry inserted earliest, as a scan of
    /// every entry for the smallest insertion number finds it, over a
    /// seeded mix of records, threshold flushes, discards and drains.
    #[test]
    fn the_capacity_victim_is_the_scans() {
        let (threshold, capacity) = (4, 16);
        let mut fc = FcCache::new(threshold, capacity);
        // The reference: counter → (delta, insertion number).
        let mut scan: std::collections::HashMap<RemoteAddr, (u64, u64)> = Default::default();
        let (mut seq, mut state, mut evictions) = (0u64, 0x2545_f491_4f6c_dd1du64, 0);
        for _ in 0..50_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let counter = addr(state % 40);
            match state >> 58 {
                0 => {
                    fc.discard(counter);
                    scan.remove(&counter);
                }
                1 if state % 97 == 0 => {
                    let mut drained: Vec<_> = scan.drain().map(|(a, (d, _))| (a, d)).collect();
                    drained.sort_by_key(|(a, _)| a.pack());
                    assert_eq!(fc.flush_all(), drained);
                }
                _ => {
                    seq += 1;
                    let entry = scan.entry(counter).or_insert((0, seq));
                    entry.0 += 1;
                    let mut expected = Vec::new();
                    if entry.0 >= threshold {
                        expected.push((counter, entry.0));
                        scan.remove(&counter);
                    } else if scan.len() > capacity {
                        let (&oldest, &(delta, _)) = scan
                            .iter()
                            .filter(|(a, _)| **a != counter)
                            .min_by_key(|(_, (_, inserted))| *inserted)
                            .unwrap();
                        scan.remove(&oldest);
                        expected.push((oldest, delta));
                        evictions += 1;
                    }
                    assert_eq!(fc.record(counter).to_vec(), expected);
                }
            }
        }
        assert!(evictions > 1_000, "only {evictions} capacity evictions");
    }

    #[test]
    fn threshold_one_behaves_like_no_cache() {
        let mut fc = FcCache::new(1, 100);
        let flushes = fc.record(addr(4));
        assert_eq!(flushes.to_vec(), vec![(addr(4), 1)]);
    }
}
