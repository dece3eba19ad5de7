//! The lightweight eviction history (§4.3.1), sharded across memory nodes.
//!
//! History entries are *embedded* in hash-table slots (see
//! [`crate::slot::AtomicField::for_history`]); this module provides the
//! logical-FIFO machinery around them: the global history counters,
//! client-side expiration checks and the history word — expert bitmap and
//! draw probability — stored in the `insert_ts` field of a history slot.
//!
//! # Sharding
//!
//! A single remote counter would concentrate every eviction's `RDMA_FAA`
//! (and every refresh `RDMA_READ`) on one memory node — exactly the
//! message-rate hotspot the topology layer exists to remove.  The history
//! is therefore split into up to [`MAX_HISTORY_SHARDS`] independent
//! logical FIFOs, one counter per shard, each placed on the memory node
//! the pool topology assigns to it.  A history id packs the shard in its
//! top [`HISTORY_SHARD_BITS`] bits and the per-shard sequence number in
//! the remaining [`HISTORY_COUNT_BITS`], so any client that encounters an
//! embedded entry can locate and validate it against the right shard.
//! Each shard covers `capacity / num_shards` entries, preserving the
//! total history length of the paper's configuration; a single-node pool
//! degenerates to one shard, i.e. exactly the original design.

use ditto_dm::{DmClient, DmResult, MemoryPool, RemoteAddr};
use std::sync::Arc;

/// Bits of a history id reserved for the shard index.
pub const HISTORY_SHARD_BITS: u32 = 8;
/// Bits of a history id holding the per-shard circular sequence number.
pub const HISTORY_COUNT_BITS: u32 = 40;
/// Wrap-around period of each shard's history counter.
pub const HISTORY_COUNTER_PERIOD: u64 = 1 << HISTORY_COUNT_BITS;
/// Maximum number of history shards (bounded by the shard bits).
pub const MAX_HISTORY_SHARDS: usize = 1 << HISTORY_SHARD_BITS;

/// Client-side descriptor of the sharded logical FIFO eviction history.
#[derive(Debug, Clone)]
pub struct EvictionHistory {
    /// Counter address per shard.
    shards: Arc<[RemoteAddr]>,
    /// Total capacity (entries) across all shards.
    capacity: u64,
}

impl EvictionHistory {
    /// Reserves one history counter per active memory node (up to
    /// [`MAX_HISTORY_SHARDS`]), placed by the pool topology.
    pub fn create(pool: &MemoryPool, capacity: u64) -> DmResult<Self> {
        let topology = pool.topology();
        let num_shards = topology.num_active().min(MAX_HISTORY_SHARDS) as u64;
        let mut shards = Vec::with_capacity(num_shards as usize);
        for s in 0..num_shards {
            let mn = topology.layout_node(s);
            shards.push(pool.reserve_on(mn, 8)?);
        }
        Ok(EvictionHistory {
            shards: shards.into(),
            capacity: capacity.max(1),
        })
    }

    /// Address of shard `shard`'s history counter.
    pub fn counter_addr(&self, shard: u64) -> RemoteAddr {
        self.shards[(shard % self.num_shards()) as usize]
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u64 {
        self.shards.len() as u64
    }

    /// Total capacity (length) of the logical FIFO queue across shards.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Capacity of each shard's logical FIFO.
    pub fn shard_capacity(&self) -> u64 {
        (self.capacity / self.num_shards()).max(1)
    }

    /// The shard an embedded history id belongs to.
    pub fn shard_of_id(&self, id: u64) -> u64 {
        (id >> HISTORY_COUNT_BITS) % self.num_shards()
    }

    /// Packs a shard and per-shard sequence number into a history id.
    pub fn pack_id(shard: u64, count: u64) -> u64 {
        (shard << HISTORY_COUNT_BITS) | (count % HISTORY_COUNTER_PERIOD)
    }

    /// The history id — and the shard counter's value after the increment,
    /// the client's new estimate of that shard's queue tail — that an
    /// `RDMA_FAA(1)` on `shard`'s counter acquired when it fetched `old`.
    /// The client posts the FAA, overlapping its round trip with other
    /// work, and finishes the acquisition here once the value landed.
    pub fn id_from_counter(shard: u64, old: u64) -> (u64, u64) {
        let old = old % HISTORY_COUNTER_PERIOD;
        (
            Self::pack_id(shard, old),
            (old + 1) % HISTORY_COUNTER_PERIOD,
        )
    }

    /// Reads the current value of `shard`'s history counter (one
    /// `RDMA_READ`) to refresh a client's local estimate; a faulted refresh
    /// keeps the caller's stale estimate instead of panicking.
    pub fn try_read_counter(&self, client: &DmClient, shard: u64) -> DmResult<u64> {
        Ok(client.try_read_u64(self.counter_addr(shard))? % HISTORY_COUNTER_PERIOD)
    }

    /// Number of entries between the id `entry_id` and its shard's queue
    /// tail `counter_value`, accounting for counter wrap-around.
    pub fn position(&self, counter_value: u64, entry_id: u64) -> u64 {
        let counter_value = counter_value % HISTORY_COUNTER_PERIOD;
        let entry_id = entry_id % HISTORY_COUNTER_PERIOD;
        if counter_value >= entry_id {
            counter_value - entry_id
        } else {
            counter_value + HISTORY_COUNTER_PERIOD - entry_id
        }
    }

    /// Whether the counter value or entry id `later` is at or past the
    /// counter value `earlier` of the same shard: less than half a
    /// wrap-around period ahead of it.
    pub(crate) fn at_or_after(earlier: u64, later: u64) -> bool {
        later.wrapping_sub(earlier) % HISTORY_COUNTER_PERIOD < HISTORY_COUNTER_PERIOD / 2
    }

    /// Whether the entry with `entry_id` is still inside its shard's
    /// logical FIFO queue, given the client's estimate of that shard's
    /// counter.
    pub fn is_valid(&self, counter_value: u64, entry_id: u64) -> bool {
        self.position(counter_value, entry_id) <= self.shard_capacity()
    }

    /// The entry's approximate position in the *global* logical FIFO: the
    /// per-shard position scaled by the shard count (entries spread
    /// uniformly, so a shard's k-th-newest entry is globally the
    /// `k × num_shards`-th-newest on average).  Regret penalties use this
    /// so the LeCaR discount — calibrated against the full history length —
    /// behaves identically whatever the shard count.
    pub fn global_position(&self, counter_value: u64, entry_id: u64) -> u64 {
        self.position(counter_value, entry_id) * self.num_shards()
    }
}

/// The history word of an eviction, stored verbatim in the `insert_ts`
/// field of its history entry: the expert bitmap in bits 0..48 (one bit per
/// expert whose own pick was the victim) and, in bits 48..64, the
/// probability `p` that the victim was drawn — the summed weight of those
/// experts when it was picked — quantised as `round(p × 65 535)`, clamped to
/// `1..=65 535`.  A word with zero there reads as `p = 1`.
///
/// A regret divides its penalty by `p` (EXP3's importance-weighted loss):
/// an expert is blamed only when a victim it picked is re-requested, so
/// without the division its blame grows with how often it is drawn
/// ([`crate::adaptive`]).  Divided by `p`, each expert's expected blame is
/// its loss whatever its share of draws.
pub mod expert_bitmap {
    /// Bits of the word holding the expert bitmap; the draw probability
    /// sits above them.
    pub const EXPERT_BITS: u32 = 48;
    /// The quantum of the stored draw probability.
    const ODDS_SCALE: f64 = u16::MAX as f64;

    /// Sets bit `expert` (below [`EXPERT_BITS`]) in `bitmap`.
    pub fn with_expert(bitmap: u64, expert: usize) -> u64 {
        debug_assert!(expert < EXPERT_BITS as usize);
        bitmap | (1u64 << expert)
    }

    /// Whether bit `expert` is set.
    pub fn contains(word: u64, expert: usize) -> bool {
        expert < EXPERT_BITS as usize && word & (1u64 << expert) != 0
    }

    /// Iterates over the experts present in the word.
    pub fn experts(word: u64) -> impl Iterator<Item = usize> {
        (0..EXPERT_BITS as usize).filter(move |i| contains(word, *i))
    }

    /// The history word of `bitmap`'s experts, drawn with probability `p`.
    pub fn with_odds(bitmap: u64, p: f64) -> u64 {
        let quantum = (p * ODDS_SCALE).round().clamp(1.0, ODDS_SCALE) as u64;
        (bitmap & ((1 << EXPERT_BITS) - 1)) | quantum << EXPERT_BITS
    }

    /// The draw probability the word carries; `1` if it carries none.
    pub fn odds(word: u64) -> f64 {
        match word >> EXPERT_BITS {
            0 => 1.0,
            quantum => quantum as f64 / ODDS_SCALE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dm::DmConfig;

    fn setup(capacity: u64) -> (MemoryPool, EvictionHistory) {
        let pool = MemoryPool::new(DmConfig::small());
        let history = EvictionHistory::create(&pool, capacity).unwrap();
        (pool, history)
    }

    /// Acquires an id on `shard` as the client does: one FAA on the shard's
    /// counter, decoded by [`EvictionHistory::id_from_counter`].
    fn acquire(history: &EvictionHistory, client: &DmClient, shard: u64) -> (u64, u64) {
        EvictionHistory::id_from_counter(shard, client.faa(history.counter_addr(shard), 1))
    }

    fn counter(history: &EvictionHistory, client: &DmClient, shard: u64) -> u64 {
        history.try_read_counter(client, shard).unwrap()
    }

    #[test]
    fn ids_are_sequential_within_a_shard() {
        let (pool, history) = setup(10);
        let client = pool.connect();
        assert_eq!(history.num_shards(), 1);
        let (a, next_a) = acquire(&history, &client, 0);
        let (b, _) = acquire(&history, &client, 0);
        assert_eq!(a, 0);
        assert_eq!(next_a, 1);
        assert_eq!(b, 1);
        assert_eq!(counter(&history, &client, 0), 2);
    }

    #[test]
    fn validity_window_is_shard_capacity_entries() {
        let (_pool, history) = setup(10);
        assert!(history.is_valid(5, 0));
        assert!(history.is_valid(10, 0));
        assert!(!history.is_valid(11, 0));
        assert_eq!(history.position(11, 0), 11);
    }

    #[test]
    fn wraparound_is_handled() {
        let (_pool, history) = setup(10);
        let near_wrap = HISTORY_COUNTER_PERIOD - 3;
        // Counter wrapped to 2; the entry was issued 5 positions ago.
        assert_eq!(history.position(2, near_wrap), 5);
        assert!(history.is_valid(2, near_wrap));
        assert!(!history.is_valid(20, near_wrap));
    }

    #[test]
    fn an_id_at_or_past_a_counter_was_issued_since_it_was_read() {
        let near_wrap = HISTORY_COUNTER_PERIOD - 3;
        assert!(EvictionHistory::at_or_after(5, 5));
        assert!(EvictionHistory::at_or_after(5, 9));
        assert!(!EvictionHistory::at_or_after(5, 4));
        // Across the wrap, and with the shard in the id's top bits.
        assert!(EvictionHistory::at_or_after(near_wrap, 1));
        assert!(!EvictionHistory::at_or_after(1, near_wrap));
        let id = |count| EvictionHistory::pack_id(3, count);
        assert!(EvictionHistory::at_or_after(5, id(6)));
        assert!(!EvictionHistory::at_or_after(5, id(4)));
    }

    #[test]
    fn shards_spread_over_nodes_and_ids_carry_their_shard() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(4));
        let history = EvictionHistory::create(&pool, 100).unwrap();
        assert_eq!(history.num_shards(), 4);
        assert_eq!(history.shard_capacity(), 25);
        for shard in 0..4u64 {
            assert_eq!(history.counter_addr(shard).mn_id, shard as u16);
        }
        let client = pool.connect();
        for shard in 0..4u64 {
            let (id, tail) = acquire(&history, &client, shard);
            assert_eq!(history.shard_of_id(id), shard);
            assert_eq!(id, EvictionHistory::pack_id(shard, 0));
            assert_eq!(tail, 1);
        }
        // Counters advance independently per shard.
        let (id2, _) = acquire(&history, &client, 2);
        assert_eq!(id2, EvictionHistory::pack_id(2, 1));
        assert_eq!(counter(&history, &client, 0), 1);
        assert_eq!(counter(&history, &client, 2), 2);
    }

    #[test]
    fn bitmap_roundtrip() {
        use expert_bitmap::*;
        let b = with_expert(with_expert(0, 0), 5);
        assert!(contains(b, 0));
        assert!(contains(b, 5));
        assert!(!contains(b, 1));
        assert_eq!(experts(b).collect::<Vec<_>>(), vec![0, 5]);
        assert_eq!(odds(b), 1.0, "a word without odds reads as p = 1");
        let top = with_expert(0, EXPERT_BITS as usize - 1);
        assert_eq!(experts(top).collect::<Vec<_>>(), vec![47]);
    }

    #[test]
    fn the_history_word_carries_bitmap_and_odds() {
        use expert_bitmap::*;
        let bitmap = with_expert(with_expert(0, 1), 47);
        for p in [1.0, 0.5, 0.25, 0.1, 0.01] {
            let word = with_odds(bitmap, p);
            assert_eq!(experts(word).collect::<Vec<_>>(), vec![1, 47]);
            assert!((odds(word) - p).abs() <= 0.5 / 65_535.0, "p = {p}");
        }
        assert_eq!(with_odds(bitmap, 1.0) >> EXPERT_BITS, 65_535);
        // Never zero, whatever the weight: a zero would read as p = 1.
        assert_eq!(with_odds(bitmap, 0.0) >> EXPERT_BITS, 1);
        assert_eq!(odds(with_odds(bitmap, 1e-9)), 1.0 / 65_535.0);
        assert_eq!(odds(with_odds(bitmap, 2.0)), 1.0);
        // Odds above the bitmap never read as experts.
        assert!(!contains(with_odds(0, 1.0), 48));
        assert_eq!(experts(with_odds(0, 1.0)).count(), 0);
    }

    #[test]
    fn concurrent_id_acquisition_yields_unique_ids() {
        let (pool, history) = setup(100);
        let mut all: Vec<u64> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = pool.clone();
                    let history = history.clone();
                    s.spawn(move || {
                        let client = pool.connect();
                        (0..250)
                            .map(|_| acquire(&history, &client, 0).0)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().unwrap());
            }
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1_000);
    }
}
