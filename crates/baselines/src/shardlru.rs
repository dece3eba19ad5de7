//! Lock-protected caching data structures maintained by clients over DM.
//!
//! This module implements the family of straw-man designs the paper uses to
//! motivate the client-centric framework:
//!
//! * **KVS** — a plain key-value store on DM: no caching data structure, so a
//!   `Get` needs only the index READ and the object READ (Figure 2's upper
//!   bound).
//! * **KVC** — a key-value *cache* maintaining one lock-protected LRU list:
//!   every access acquires the remote lock and rewires list pointers with
//!   additional one-sided verbs (Figure 2's collapse).
//! * **KVC-S / Shard-LRU** — the same, but the LRU list is sharded (32 ways
//!   by default) and clients back off 5 µs after a failed lock acquisition.
//!
//! The remote lock and every verb on the data path are real operations
//! against the DM substrate (so contention, retries and message counts are
//! genuine); the LRU order itself is tracked in a process-shared map, which
//! keeps the implementation small without changing any quantity the figures
//! measure (throughput, latency, messages, lock retries).  The lock is this
//! crate's own (`lock.rs`), built on `ditto_dm`'s public verbs: Ditto takes
//! no lock, so the substrate carries none.

use crate::lock::RemoteLock;
use ditto_dm::{DmClient, MemoryPool, RemoteAddr};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which straw-man variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ListVariant {
    /// Plain KV store: no caching structure, no locks.
    Kvs,
    /// KV cache with a single lock-protected LRU list.
    Kvc,
    /// KV cache with the LRU list sharded `n` ways (Shard-LRU / KVC-S).
    Sharded(usize),
}

impl ListVariant {
    /// Number of shards (0 for KVS).
    pub fn shards(&self) -> usize {
        match self {
            ListVariant::Kvs => 0,
            ListVariant::Kvc => 1,
            ListVariant::Sharded(n) => (*n).max(1),
        }
    }

    /// Simulated back-off after a failed lock acquisition, in nanoseconds,
    /// or `None` for KVS, which takes no lock.  The paper backs Shard-LRU
    /// (KVC-S) off for 5 µs.
    pub fn backoff_ns(&self) -> Option<u64> {
        match self {
            ListVariant::Kvs => None,
            ListVariant::Kvc => Some(1_000),
            ListVariant::Sharded(_) => Some(5_000),
        }
    }

    /// Display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            ListVariant::Kvs => "kvs",
            ListVariant::Kvc => "kvc",
            ListVariant::Sharded(_) => "shard-lru",
        }
    }
}

/// Configuration of the lock-based baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LockedListConfig {
    /// Cache capacity in objects (ignored by KVS).
    pub capacity_objects: u64,
    /// Variant to run.
    pub variant: ListVariant,
}

impl LockedListConfig {
    /// The Shard-LRU baseline of Figure 14: the list sharded 32 ways.
    pub fn shard_lru(capacity_objects: u64) -> Self {
        LockedListConfig {
            capacity_objects,
            variant: ListVariant::Sharded(32),
        }
    }

    /// The single-list KVC of Figure 2.
    pub fn kvc(capacity_objects: u64) -> Self {
        LockedListConfig {
            capacity_objects,
            variant: ListVariant::Kvc,
        }
    }

    /// The plain KVS of Figure 2.
    pub fn kvs() -> Self {
        LockedListConfig {
            capacity_objects: u64::MAX,
            variant: ListVariant::Kvs,
        }
    }
}

#[derive(Default)]
struct ShardState {
    objects: HashMap<Vec<u8>, (Vec<u8>, u64)>,
    order: BTreeMap<u64, Vec<u8>>,
    tick: u64,
    evictions: u64,
}

impl ShardState {
    fn touch(&mut self, key: &[u8]) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, old_tick)) = self.objects.get_mut(key) {
            self.order.remove(old_tick);
            *old_tick = tick;
            self.order.insert(tick, key.to_vec());
        }
    }

    fn insert(&mut self, capacity: u64, key: &[u8], value: &[u8]) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((old_value, old_tick)) = self.objects.get_mut(key) {
            *old_value = value.to_vec();
            self.order.remove(old_tick);
            *old_tick = tick;
            self.order.insert(tick, key.to_vec());
            return;
        }
        while self.objects.len() as u64 >= capacity {
            if let Some((&oldest, _)) = self.order.iter().next() {
                if let Some(victim) = self.order.remove(&oldest) {
                    self.objects.remove(&victim);
                    self.evictions += 1;
                }
            } else {
                break;
            }
        }
        self.objects.insert(key.to_vec(), (value.to_vec(), tick));
        self.order.insert(tick, key.to_vec());
    }
}

struct ShardShared {
    lock: Option<RemoteLock>,
    list_region: RemoteAddr,
    state: Mutex<ShardState>,
}

/// The lock-based baseline cache (shared across clients).
#[derive(Clone)]
pub struct LockedListCache {
    pool: MemoryPool,
    config: Arc<LockedListConfig>,
    shards: Arc<Vec<ShardShared>>,
    lock_retries: Arc<AtomicU64>,
    lock_exhaustions: Arc<AtomicU64>,
}

impl LockedListCache {
    /// Deploys the baseline on the given memory pool.
    pub fn new(pool: MemoryPool, config: LockedListConfig) -> Self {
        let num_shards = config.variant.shards().max(1);
        let mut shards = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let lock_addr = pool.reserve(8).expect("lock word");
            // Scratch region standing in for the object slab and list nodes of
            // this shard; large enough for the biggest value write below.
            let list_region = pool.reserve(2048).expect("list scratch");
            let lock = config
                .variant
                .backoff_ns()
                .map(|backoff_ns| RemoteLock::new(lock_addr, backoff_ns));
            shards.push(ShardShared {
                lock,
                list_region,
                state: Mutex::new(ShardState::default()),
            });
        }
        LockedListCache {
            pool,
            config: Arc::new(config),
            shards: Arc::new(shards),
            lock_retries: Arc::new(AtomicU64::new(0)),
            lock_exhaustions: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates a per-thread client.
    pub fn client(&self) -> LockedListClient {
        LockedListClient {
            dm: self.pool.connect(),
            shared: self.clone(),
        }
    }

    /// The underlying memory pool.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// Total failed lock acquisitions observed so far.
    pub fn lock_retries(&self) -> u64 {
        self.lock_retries.load(Ordering::Relaxed)
    }

    /// Lock acquisitions that spent their whole retry budget and gave up,
    /// skipping the list update they guarded.
    pub fn lock_exhaustions(&self) -> u64 {
        self.lock_exhaustions.load(Ordering::Relaxed)
    }

    /// Total number of cached objects across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().objects.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, key: &[u8]) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    fn per_shard_capacity(&self) -> u64 {
        let shards = self.shards.len() as u64;
        if self.config.capacity_objects == u64::MAX {
            u64::MAX
        } else {
            (self.config.capacity_objects / shards).max(1)
        }
    }
}

/// A per-thread client of the lock-based baseline.
pub struct LockedListClient {
    dm: DmClient,
    shared: LockedListCache,
}

impl LockedListClient {
    /// The underlying DM client.
    pub fn dm(&self) -> &DmClient {
        &self.dm
    }

    /// Issues the one-sided verbs of an LRU-list update inside the critical
    /// section: unlink the node, relink at the head (2 READs + 2 WRITEs).
    fn list_maintenance_verbs(&self, region: RemoteAddr) {
        let _ = self.dm.read(region, 16);
        self.dm.write(region, &[0u8; 16]);
        let _ = self.dm.read(region.add(16), 16);
        self.dm.write(region.add(16), &[0u8; 16]);
    }

    /// Takes `shard`'s lock and updates its list under it: the
    /// list-maintenance verbs, then `update` on the LRU state, then the
    /// release.  An acquisition that exhausts its retry budget holds
    /// nothing, so it sends no list verb, runs no `update` and returns
    /// `false`.
    fn update_list(
        &self,
        shard: &ShardShared,
        lock: &RemoteLock,
        update: impl FnOnce(&mut ShardState),
    ) -> bool {
        let acq = lock.acquire(&self.dm);
        self.shared
            .lock_retries
            .fetch_add(acq.retries, Ordering::Relaxed);
        let Some(token) = acq.token else {
            self.shared.lock_exhaustions.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        self.list_maintenance_verbs(shard.list_region);
        update(&mut shard.state.lock());
        let _ = lock.release(&self.dm, token);
        true
    }
}

impl ditto_workloads::CacheBackend for LockedListClient {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.dm.begin_op();
        let shard_idx = self.shared.shard_for(key);
        let shard = &self.shared.shards[shard_idx];
        // Index lookup + object read, as in every DM KV store.
        let _ = self.dm.read(shard.list_region, 64);
        let value = shard.state.lock().objects.get(key).map(|(v, _)| v.clone());
        if value.is_some() {
            let _ = self.dm.read(shard.list_region, 64);
            if let Some(lock) = &shard.lock {
                self.update_list(shard, lock, |state| state.touch(key));
            }
        }
        self.dm.end_op();
        value
    }

    fn set(&mut self, key: &[u8], value: &[u8]) {
        self.dm.begin_op();
        let shard_idx = self.shared.shard_for(key);
        let shard = &self.shared.shards[shard_idx];
        // Object write + index CAS.
        self.dm
            .write(shard.list_region, &vec![0u8; value.len().clamp(64, 1024)]);
        let _ = self.dm.cas(shard.list_region.add(64), 0, 0);
        let capacity = self.shared.per_shard_capacity();
        let insert = |state: &mut ShardState| state.insert(capacity, key, value);
        // The WRITE and CAS above stored the value, so a Set whose lock
        // gave up still keeps it; it only sends no list verb.
        let listed = match &shard.lock {
            Some(lock) => self.update_list(shard, lock, insert),
            None => false,
        };
        if !listed {
            insert(&mut shard.state.lock());
        }
        self.dm.end_op();
    }

    fn miss_penalty(&mut self, us: u64) {
        self.dm.sleep_us(us);
    }

    fn backend_name(&self) -> &str {
        self.shared.config.variant.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dm::DmConfig;
    use ditto_workloads::CacheBackend;

    fn build(config: LockedListConfig) -> LockedListCache {
        LockedListCache::new(MemoryPool::new(DmConfig::small()), config)
    }

    #[test]
    fn variants_expose_expected_shard_counts() {
        assert_eq!(ListVariant::Kvs.shards(), 0);
        assert_eq!(ListVariant::Kvc.shards(), 1);
        assert_eq!(ListVariant::Sharded(32).shards(), 32);
        assert_eq!(ListVariant::Sharded(0).shards(), 1);
    }

    #[test]
    fn set_then_get_roundtrip_for_all_variants() {
        for config in [
            LockedListConfig::kvs(),
            LockedListConfig::kvc(100),
            LockedListConfig::shard_lru(100),
        ] {
            let cache = build(config);
            let mut client = cache.client();
            client.set(b"a", b"alpha");
            assert_eq!(client.get(b"a").as_deref(), Some(&b"alpha"[..]));
            assert_eq!(client.get(b"missing"), None);
        }
    }

    #[test]
    fn lru_eviction_per_shard() {
        let cache = build(LockedListConfig::kvc(3));
        let mut client = cache.client();
        client.set(b"a", b"1");
        client.set(b"b", b"2");
        client.set(b"c", b"3");
        let _ = client.get(b"a");
        client.set(b"d", b"4");
        assert!(client.get(b"b").is_none());
        assert!(client.get(b"a").is_some());
        assert!(cache.len() <= 3);
    }

    #[test]
    fn kvc_uses_more_messages_per_get_than_kvs() {
        let kvs = build(LockedListConfig::kvs());
        let kvc = build(LockedListConfig::kvc(1_000));
        let mut kvs_client = kvs.client();
        let mut kvc_client = kvc.client();
        kvs_client.set(b"k", b"v");
        kvc_client.set(b"k", b"v");

        kvs.pool().reset_stats();
        let _ = kvs_client.get(b"k");
        let kvs_msgs = kvs.pool().stats().node_snapshots()[0].messages;

        kvc.pool().reset_stats();
        let _ = kvc_client.get(b"k");
        let kvc_msgs = kvc.pool().stats().node_snapshots()[0].messages;

        assert!(
            kvs_msgs <= 2,
            "KVS should need ≤2 messages, used {kvs_msgs}"
        );
        assert!(
            kvc_msgs >= kvs_msgs + 4,
            "KVC adds lock + list verbs: {kvc_msgs} vs {kvs_msgs}"
        );
    }

    #[test]
    fn contended_lock_causes_retries() {
        let cache = build(LockedListConfig::kvc(10_000));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    let mut client = cache.client();
                    for i in 0..200u64 {
                        client.set(format!("t{t}-{i}").as_bytes(), b"v");
                        let _ = client.get(format!("t{t}-{i}").as_bytes());
                    }
                });
            }
        });
        assert!(
            cache.lock_retries() > 0,
            "expected simulated lock contention on a single shard"
        );
    }

    #[test]
    fn sharding_reduces_contention() {
        // Interleave four clients deterministically in one thread: on a
        // single-core CI box real thread scheduling serialises the workers in
        // large chunks, which makes the retry counts depend on the scheduler
        // rather than on the lock structure.  The simulated-time lock model
        // produces the contention either way, so a round-robin interleave
        // measures exactly the property the paper's figure shows (sharding
        // spreads acquisitions over 32 locks) without the flakiness.
        let run = |config: LockedListConfig| {
            let cache = build(config);
            let mut clients: Vec<_> = (0..4).map(|_| cache.client()).collect();
            for i in 0..300u64 {
                for (t, client) in clients.iter_mut().enumerate() {
                    client.set(format!("t{t}-{i}").as_bytes(), b"v");
                }
            }
            cache.lock_retries()
        };
        let single = run(LockedListConfig::kvc(100_000));
        let sharded = run(LockedListConfig::shard_lru(100_000));
        assert!(
            sharded < single,
            "sharding should reduce retries: {sharded} vs {single}"
        );
    }

    #[test]
    fn an_exhausted_lock_skips_the_list_update() {
        let cache = build(LockedListConfig::kvc(100));
        // Another client takes the shard's lock and holds it through the Set.
        let holder = cache.pool().connect();
        let lock = cache.shards[0].lock.unwrap();
        let held = lock.acquire(&holder).token.unwrap();

        let mut client = cache.client();
        cache.pool().reset_stats();
        client.set(b"k", b"v");
        let node = cache.pool().stats().node_snapshots()[0];
        // The object WRITE and the index CAS; no list WRITE, no release CAS.
        assert_eq!((node.writes, node.cas), (1, 1));
        // Every READ was a lock probe: no list READ.
        assert_eq!(node.reads, cache.lock_retries());
        assert_eq!(cache.lock_exhaustions(), 1);

        // The Set still stored its value.
        lock.release(&holder, held).unwrap();
        assert_eq!(client.get(b"k").as_deref(), Some(&b"v"[..]));
        assert_eq!(cache.lock_exhaustions(), 1);
    }

    #[test]
    fn lock_waits_record_lock_spans() {
        // `sharding_reduces_contention`'s four-client KVC interleave with
        // every client's flight recorder armed.
        let pool = MemoryPool::new(DmConfig::small().with_flight_recorder(1 << 16));
        let cache = LockedListCache::new(pool, LockedListConfig::kvc(100_000));
        let mut clients: Vec<_> = (0..4).map(|_| cache.client()).collect();
        for i in 0..300u64 {
            for (t, client) in clients.iter_mut().enumerate() {
                client.set(format!("t{t}-{i}").as_bytes(), b"v");
            }
        }
        assert_eq!(cache.pool().stats().obs().spans_dropped, 0);
        let lock_spans: Vec<_> = clients
            .iter()
            .flat_map(|c| c.dm().flight_spans())
            .filter(|s| s.phase == ditto_dm::Phase::Lock)
            .collect();
        assert!(cache.lock_retries() > 0, "the interleave contends");
        assert_eq!(lock_spans.len(), 4 * 300, "one span per acquisition");
        assert_eq!(
            lock_spans.iter().map(|s| s.detail as u64).sum::<u64>(),
            cache.lock_retries()
        );
    }

    #[test]
    fn kvs_has_unbounded_capacity() {
        let cache = build(LockedListConfig::kvs());
        let mut client = cache.client();
        for i in 0..1_000u64 {
            client.set(format!("k{i}").as_bytes(), b"v");
        }
        assert_eq!(cache.len(), 1_000);
        assert_eq!(cache.lock_retries(), 0);
    }
}
