//! Configuration of the Ditto cache.

use crate::hashtable::SampleFriendlyHashTable;
use crate::slot::SLOTS_PER_BUCKET;
use serde::{Deserialize, Serialize};

/// Configuration of a [`crate::DittoCache`].
///
/// The defaults follow §5.1 of the paper: eviction samples of 5 candidates
/// ([`DittoConfig::SAMPLE_SIZE`]), a frequency-counter threshold of 10 with
/// a 10 MB client-side cache, a learning rate of 0.1
/// ([`crate::adaptive::LEARNING_RATE`]), weight synchronisation every 100
/// local updates, and an eviction history as long as the cache, in objects
/// ([`DittoConfig::history_len`]).  The policy adapts whenever it has two
/// experts or more ([`crate::adaptive::AdaptivePolicy::is_adaptive`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DittoConfig {
    /// Cache capacity in objects; the memory pool is sized so that roughly
    /// this many objects fit before allocations fail and evictions start.
    pub capacity_objects: u64,
    /// Expected object size in bytes (value only), used to size the pool.
    pub avg_object_size: u32,
    /// Frequency-counter cache flush threshold *t*.
    pub fc_threshold: u64,
    /// Frequency-counter cache size in megabytes (§4.2.2).  0 MB means no
    /// FC cache: every access sends its own `RDMA_FAA` to the slot's
    /// counter, which is Figure 25's first point.
    pub fc_cache_mb: f64,
    /// Number of locally buffered weight updates before syncing with the
    /// memory-node controller (§4.3.2).  1 synchronises on every regret —
    /// the paper's ablation without lazy weight updates.
    pub weight_sync_batch: usize,
    /// Names of the expert caching algorithms (see `ditto_algorithms::registry`).
    /// Two or more run the distributed adaptive caching scheme; one runs
    /// that expert alone and skips the history/weight machinery (the
    /// paper's Ditto-LRU / Ditto-LFU configurations).
    pub experts: Vec<String>,
    /// Ablation toggle: store default metadata inside the hash-table slot
    /// (the sample-friendly hash table, §4.2.1).  Disabling it models
    /// metadata scattered with the objects.
    pub enable_sample_friendly_table: bool,
    /// Ablation toggle: embed history entries in the hash table (§4.3.1).
    /// Disabling it keeps the entries' behaviour and adds the traffic of a
    /// separate remote FIFO queue plus index: a queue WRITE and an index CAS
    /// per won eviction, an index READ per miss.
    pub enable_lightweight_history: bool,
    /// Segment size (in objects) requested from the memory node at a time by
    /// each client's allocator.
    pub alloc_segment_objects: u64,
    /// Crash-consistent client failover: reserve a small per-client redo
    /// journal in DM and have `Set` record its in-flight allocation (and the
    /// entry it is about to replace) before publishing, so
    /// `DittoClient::recover_crashed_client` can settle ownership of a dead
    /// client's in-flight object and reclaim its memory.  Off by default:
    /// the journal writes add messages to the `Set` path, and the golden
    /// replays and the benchmark are recorded without them.
    pub enable_crash_recovery_journal: bool,
    /// Capacity (in objects) of the compute-side local cache tier
    /// ([`crate::local_tier`]); 0 disables the tier.  Each client holds its
    /// own fixed-capacity, allocation-free store of decoded hot objects; a
    /// hit on a lease-valid entry costs **zero** network messages.
    pub local_tier_capacity: usize,
    /// Lease *floor* (simulated nanoseconds) of a local-tier entry: what an
    /// admission is leased for, and the least a renewal grants — an entry
    /// whose slot word has been seen unchanged for longer earns more
    /// ([`crate::local_tier::lease_for`]).  A local hit past its lease
    /// revalidates with one 8-byte slot-word READ before serving; within
    /// the lease the entry's coherence rests on the in-process coherence
    /// board (see the `local_tier` module docs).
    pub local_tier_lease_ns: u64,
}

/// Hash-table slots allocated per cached object: room for the live object
/// and its history entries, and the slack that keeps a key's two buckets from
/// filling (a full pair forces a bucket eviction).  A full cache therefore
/// holds one live object per three slots, which is why an eviction sample
/// spans [`DittoConfig::SAMPLE_SPAN_SLOTS`] of them.
const SLOTS_PER_OBJECT: u64 = 3;

impl Default for DittoConfig {
    fn default() -> Self {
        DittoConfig {
            capacity_objects: 100_000,
            avg_object_size: 256,
            fc_threshold: 10,
            fc_cache_mb: 10.0,
            weight_sync_batch: 100,
            experts: vec!["lru".to_string(), "lfu".to_string()],
            enable_sample_friendly_table: true,
            enable_lightweight_history: true,
            alloc_segment_objects: 16,
            enable_crash_recovery_journal: false,
            local_tier_capacity: 0,
            local_tier_lease_ns: 50_000,
        }
    }
}

impl DittoConfig {
    /// Default configuration with the given object capacity.
    pub fn with_capacity(capacity_objects: u64) -> Self {
        DittoConfig {
            capacity_objects: capacity_objects.max(1),
            ..DittoConfig::default()
        }
    }

    /// A non-adaptive configuration running a single caching algorithm
    /// (e.g. the paper's Ditto-LRU baseline).
    pub fn single_algorithm(capacity_objects: u64, algorithm: &str) -> Self {
        DittoConfig {
            capacity_objects: capacity_objects.max(1),
            experts: vec![algorithm.to_string()],
            ..DittoConfig::default()
        }
    }

    /// Sets the expert list (builder style); two experts or more adapt.
    pub fn with_experts<S: Into<String>>(mut self, experts: Vec<S>) -> Self {
        self.experts = experts.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the average object size (builder style).
    pub fn with_object_size(mut self, bytes: u32) -> Self {
        self.avg_object_size = bytes;
        self
    }

    /// Enables or disables the crash-recovery redo journal (builder
    /// style); see [`DittoConfig::enable_crash_recovery_journal`].
    pub fn with_crash_recovery_journal(mut self, enabled: bool) -> Self {
        self.enable_crash_recovery_journal = enabled;
        self
    }

    /// Enables the compute-side local cache tier (builder style):
    /// `capacity` decoded hot objects per client, each covered by a
    /// coherence lease in simulated time of which `lease_ns` is the floor —
    /// a fresh admission's lease, grown at each revalidation by how long
    /// the entry has been seen unchanged.  Pass `capacity = 0` to disable;
    /// see [`crate::local_tier`].
    pub fn with_local_tier(mut self, capacity: usize, lease_ns: u64) -> Self {
        self.local_tier_capacity = capacity;
        self.local_tier_lease_ns = lease_ns;
        self
    }

    /// Eviction candidates expected per sample (K, the paper's 5): a sample
    /// reads [`DittoConfig::SAMPLE_SPAN_SLOTS`] consecutive slots, which at
    /// the table's density of one live object per three slots hold about K
    /// objects.  The simulator scores exactly K.
    pub const SAMPLE_SIZE: usize = 5;

    /// Consecutive hash-table slots one eviction sample READs: K times the
    /// slots the table allocates per object.  Derived, not a knob.  (The
    /// scattered-metadata ablation READs K single slots instead.)
    pub const SAMPLE_SPAN_SLOTS: usize = Self::SAMPLE_SIZE * SLOTS_PER_OBJECT as usize;

    /// Extra bytes per object (key + object header), used to size the pool.
    pub const OBJECT_OVERHEAD_BYTES: u32 = 32;

    /// Client CPU nanoseconds charged per hash-table slot decoded on the
    /// data path (bucket and eviction-sample decoding).  Work done between
    /// a doorbell and the poll of its completions overlaps the in-flight
    /// transfers instead of adding to the critical path.
    pub const CPU_DECODE_SLOT_NS: u64 = 20;

    /// Client CPU nanoseconds charged per eviction candidate gathered and
    /// scored (see [`DittoConfig::CPU_DECODE_SLOT_NS`]).
    pub const CPU_SCORE_CANDIDATE_NS: u64 = 30;

    /// Client CPU nanoseconds charged per local-tier hit (index probe, board
    /// check and value copy) — the whole cost of a lease-valid hit.
    pub const CPU_LOCAL_HIT_NS: u64 = 50;

    /// Length of the logical FIFO eviction history: as long as the cache, in
    /// objects (the paper's setting).
    pub fn history_len(&self) -> u64 {
        self.capacity_objects
    }

    /// Number of 64-byte blocks an average object occupies.
    pub fn avg_object_blocks(&self) -> u64 {
        (u64::from(self.avg_object_size) + u64::from(Self::OBJECT_OVERHEAD_BYTES)).div_ceil(64)
    }

    /// Maximum number of entries the frequency-counter cache may hold
    /// (each entry is accounted at 32 bytes, per §5.6), or `None` at 0 MB:
    /// no FC cache.
    pub fn fc_capacity_entries(&self) -> Option<usize> {
        (self.fc_cache_mb > 0.0)
            .then(|| ((self.fc_cache_mb * 1_000_000.0) / 32.0).max(1.0) as usize)
    }

    /// Number of hash-table buckets: exactly enough for three slots per
    /// object, rounded only as [`SampleFriendlyHashTable::bucket_count`]
    /// stripes the table.
    pub fn num_buckets(&self) -> u64 {
        let slots = self.capacity_objects * SLOTS_PER_OBJECT;
        SampleFriendlyHashTable::bucket_count(slots.div_ceil(SLOTS_PER_BUCKET as u64))
    }

    /// Validates internal consistency.  The expert list is checked where the
    /// experts are built ([`crate::adaptive::AdaptivePolicy::from_names`]).
    ///
    /// Sizes are outside input (the config deserializes), so the bytes the
    /// pool and one allocation segment are sized for are capped at 2^48, which
    /// keeps every size computed from them inside `u64`.  This is an overflow
    /// guard, not an addressability check: a slot pointer reaches 2^40 bytes
    /// per node, and the node count is not known here.  The table may have
    /// at most [`SampleFriendlyHashTable::MAX_BUCKETS`] buckets, the range
    /// its bucket mapping covers.
    pub fn validate(&self) -> Result<(), String> {
        if self.local_tier_capacity > 0 && self.local_tier_lease_ns == 0 {
            return Err("local_tier_lease_ns must be at least 1 when the tier is on".to_string());
        }
        let object_bytes = self.avg_object_blocks() * 64;
        let fits = |n: u64| n.checked_mul(object_bytes).is_some_and(|b| b <= 1 << 48);
        if !fits(self.capacity_objects) || !fits(self.alloc_segment_objects) {
            return Err("the pool or one segment would exceed 2^48 bytes".to_string());
        }
        if self.num_buckets() > SampleFriendlyHashTable::MAX_BUCKETS {
            return Err("the hash table would exceed 2^32 buckets".to_string());
        }
        if !self.fc_cache_mb.is_finite() {
            return Err("fc_cache_mb must be finite".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{discount, AdaptivePolicy, LEARNING_RATE};

    fn policy(c: &DittoConfig) -> AdaptivePolicy {
        AdaptivePolicy::from_names(&c.experts, c.history_len(), c.weight_sync_batch).unwrap()
    }

    #[test]
    fn defaults_match_paper_parameters() {
        let c = DittoConfig::default();
        assert_eq!(DittoConfig::SAMPLE_SIZE, 5);
        assert_eq!(DittoConfig::SAMPLE_SPAN_SLOTS, 15);
        assert_eq!(c.fc_threshold, 10);
        assert_eq!(c.fc_cache_mb, 10.0);
        assert_eq!(c.fc_capacity_entries(), Some(312_500));
        let no_fc = DittoConfig {
            fc_cache_mb: 0.0,
            ..DittoConfig::default()
        };
        assert_eq!(no_fc.fc_capacity_entries(), None, "0 MB is no FC cache");
        assert_eq!(LEARNING_RATE, 0.1);
        assert_eq!(c.weight_sync_batch, 100);
        assert_eq!(c.experts, vec!["lru", "lfu"]);
        assert!(policy(&c).is_adaptive());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn history_defaults_to_capacity() {
        let c = DittoConfig::with_capacity(5_000);
        assert_eq!(c.history_len(), 5_000);
    }

    #[test]
    fn single_algorithm_disables_adaptivity() {
        let c = DittoConfig::single_algorithm(1_000, "lfu");
        assert!(!policy(&c).is_adaptive());
        assert_eq!(c.experts, vec!["lfu"]);
        assert!(c.validate().is_ok());
    }

    /// ⌈3N/8⌉ buckets for N objects, at most 63 more to fill the last
    /// stripe, and at least 4.
    #[test]
    fn num_buckets_is_exact() {
        for n in [1u64, 2, 10, 100, 170, 171, 10_000, 100_000, 1_000_003] {
            let exact = (3 * n).div_ceil(8).max(4);
            let buckets = DittoConfig::with_capacity(n).num_buckets();
            let label = format!("{n} objects: {buckets} buckets");
            assert!((exact..=exact + 63).contains(&buckets), "{label}");
            if exact <= 64 {
                assert_eq!(buckets, exact, "{label}: a small table stays exact");
            } else {
                assert_eq!(buckets % 64, 0, "{label}: whole stripes");
            }
        }
        assert_eq!(DittoConfig::with_capacity(100_000).num_buckets(), 37_504);
        assert_eq!(DittoConfig::with_capacity(10).num_buckets(), 4);
    }

    /// The bucket mapping multiplies a 32-bit hash by the bucket count in a
    /// `u64`: 2^32 buckets is the most a valid config gets.
    #[test]
    fn a_table_of_more_than_2_pow_32_buckets_is_invalid() {
        // ⌈3N/8⌉ = 2^32 exactly, and one object more needs a bucket more.
        let largest = (1u64 << 35).div_ceil(3) - 1;
        let c = DittoConfig::with_capacity(largest);
        assert_eq!(c.num_buckets(), 1 << 32);
        assert!(c.validate().is_ok());
        let c = DittoConfig::with_capacity(largest + 1);
        assert_eq!(c.num_buckets(), (1 << 32) + 64);
        assert!(c.validate().is_err());
    }

    #[test]
    fn discount_rate_is_below_one() {
        let c = DittoConfig::with_capacity(1_000);
        let d = discount(c.history_len());
        assert!(d > 0.9 && d < 1.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = DittoConfig::default().with_local_tier(64, 0);
        assert!(c.validate().is_err());
        assert!(c.with_local_tier(0, 0).validate().is_ok());

        let mut c = DittoConfig::default();
        c.experts.clear();
        assert!(AdaptivePolicy::from_names(&c.experts, c.history_len(), 1).is_err());
        // 48 experts fill the history word's bitmap; the 49th has no bit.
        c.experts = vec!["lru".to_string(); 48];
        assert!(AdaptivePolicy::from_names(&c.experts, c.history_len(), 1).is_ok());
        c.experts = vec!["lru".to_string(); 49];
        let Err(error) = AdaptivePolicy::from_names(&c.experts, c.history_len(), 1) else {
            panic!("49 experts built a policy");
        };
        assert!(error.to_string().contains("1 to 48"), "{error}");
    }

    #[test]
    fn object_blocks_account_for_overhead() {
        let c = DittoConfig::default();
        // 256 B value + 32 B overhead = 288 B → 5 blocks.
        assert_eq!(c.avg_object_blocks(), 5);
    }

    #[test]
    fn with_experts_enables_adaptivity_for_multiple() {
        let c = DittoConfig::with_capacity(10).with_experts(vec!["lru", "lfu", "fifo"]);
        assert!(policy(&c).is_adaptive());
        assert_eq!(c.experts.len(), 3);
        let c = DittoConfig::with_capacity(10).with_experts(vec!["gdsf"]);
        assert!(!policy(&c).is_adaptive());
    }
}
