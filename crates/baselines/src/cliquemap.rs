//! CliqueMap-style RDMA cache: one-sided `Get`s, server-executed `Set`s.
//!
//! CliqueMap (Singhvi et al., SIGCOMM '21) keeps the index and values
//! readable with client-side RMA, but relies on server CPUs for mutations and
//! for running the caching algorithm.  Since `Get`s bypass the CPU, clients
//! buffer per-object access records locally and ship them to the server
//! periodically; the server merges them into its precise LRU list or LFU
//! heap.  The consequences measured in §5.3 are:
//!
//! * `Set`-heavy workloads saturate the memory node's weak CPU;
//! * read-heavy workloads still pay server CPU for merging access records;
//! * hit rates equal precise LRU/LFU (no sampling error).
//!
//! The value store itself is kept in a process-shared map guarded by a lock
//! (it stands in for the RMA-readable region); every client operation charges
//! the same verbs a real CliqueMap client would issue, so message and CPU
//! accounting — the quantities the figures compare — are faithful.

use ditto_dm::rpc::CLIQUEMAP_SERVICE;
use ditto_dm::{DmClient, MemoryPool};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Which precise caching algorithm the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerPolicy {
    /// Precise LRU (CM-LRU).
    Lru,
    /// Precise LFU (CM-LFU).
    Lfu,
}

/// Configuration of the CliqueMap baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CliqueMapConfig {
    /// Cache capacity in objects.
    pub capacity_objects: u64,
    /// Server policy (LRU or LFU).
    pub policy: ServerPolicy,
}

impl CliqueMapConfig {
    /// Number of buffered access records before a client syncs them to the
    /// server.
    pub const ACCESS_SYNC_BATCH: usize = 64;

    /// Server CPU nanoseconds consumed by one `Set`.
    pub const SET_CPU_NS: u64 = 1_800;

    /// Server CPU nanoseconds consumed per merged access record.
    pub const ACCESS_MERGE_CPU_NS: u64 = 250;

    /// CM-LRU with the given capacity.
    pub fn lru(capacity_objects: u64) -> Self {
        CliqueMapConfig {
            capacity_objects,
            policy: ServerPolicy::Lru,
        }
    }

    /// CM-LFU with the given capacity.
    pub fn lfu(capacity_objects: u64) -> Self {
        CliqueMapConfig {
            capacity_objects,
            policy: ServerPolicy::Lfu,
        }
    }
}

#[derive(Debug, Clone)]
struct StoredObject {
    value: Vec<u8>,
    freq: u64,
    order_key: (u64, u64),
}

/// Server-side state: the value store plus the precise eviction order.
#[derive(Default)]
struct ServerState {
    objects: HashMap<Vec<u8>, StoredObject>,
    /// Eviction order: (rank, tiebreak) → key.  For LRU the rank is the last
    /// access tick, for LFU the access frequency.
    order: BTreeMap<(u64, u64), Vec<u8>>,
    tick: u64,
    evictions: u64,
}

impl ServerState {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn rank(policy: ServerPolicy, freq: u64, tick: u64) -> (u64, u64) {
        match policy {
            ServerPolicy::Lru => (tick, 0),
            ServerPolicy::Lfu => (freq, tick),
        }
    }

    fn touch(&mut self, policy: ServerPolicy, key: &[u8]) {
        let tick = self.next_tick();
        if let Some(obj) = self.objects.get_mut(key) {
            self.order.remove(&obj.order_key);
            obj.freq += 1;
            obj.order_key = Self::rank(policy, obj.freq, tick);
            self.order.insert(obj.order_key, key.to_vec());
        }
    }

    fn insert(&mut self, policy: ServerPolicy, capacity: u64, key: &[u8], value: &[u8]) {
        let tick = self.next_tick();
        if let Some(obj) = self.objects.get_mut(key) {
            self.order.remove(&obj.order_key);
            obj.value = value.to_vec();
            obj.freq += 1;
            obj.order_key = Self::rank(policy, obj.freq, tick);
            self.order.insert(obj.order_key, key.to_vec());
            return;
        }
        while self.objects.len() as u64 >= capacity {
            if let Some((&order_key, _)) = self.order.iter().next() {
                if let Some(victim) = self.order.remove(&order_key) {
                    self.objects.remove(&victim);
                    self.evictions += 1;
                }
            } else {
                break;
            }
        }
        let order_key = Self::rank(policy, 1, tick);
        self.objects.insert(
            key.to_vec(),
            StoredObject {
                value: value.to_vec(),
                freq: 1,
                order_key,
            },
        );
        self.order.insert(order_key, key.to_vec());
    }
}

/// The CliqueMap cache instance (server state + DM pool).
#[derive(Clone)]
pub struct CliqueMapCache {
    pool: MemoryPool,
    config: Arc<CliqueMapConfig>,
    state: Arc<Mutex<ServerState>>,
}

impl CliqueMapCache {
    /// Deploys a CliqueMap instance on the given memory pool.
    pub fn new(pool: MemoryPool, config: CliqueMapConfig) -> Self {
        let state = Arc::new(Mutex::new(ServerState::default()));
        // The RPC service only exists to charge controller CPU for Sets and
        // access-record merges; the state lives in this process.
        let cpu_charger = Arc::new(
            |_node: &ditto_dm::MemoryNode, request: &[u8], _reply: &mut [u8]| {
                Ok((0, ditto_dm::rpc::wire::get_u64(request, 0).unwrap_or(0)))
            },
        );
        pool.register_handler(CLIQUEMAP_SERVICE, cpu_charger);
        CliqueMapCache {
            pool,
            config: Arc::new(config),
            state,
        }
    }

    /// Creates a client handle (one per application thread).
    pub fn client(&self) -> CliqueMapClient {
        CliqueMapClient {
            dm: self.pool.connect(),
            config: Arc::clone(&self.config),
            state: Arc::clone(&self.state),
            buffered_accesses: 0,
        }
    }

    /// The underlying memory pool.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.state.lock().objects.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of evictions performed by the server so far.
    pub fn evictions(&self) -> u64 {
        self.state.lock().evictions
    }
}

/// A per-thread CliqueMap client.
pub struct CliqueMapClient {
    dm: DmClient,
    config: Arc<CliqueMapConfig>,
    state: Arc<Mutex<ServerState>>,
    buffered_accesses: usize,
}

impl CliqueMapClient {
    /// The underlying DM client.
    pub fn dm(&self) -> &DmClient {
        &self.dm
    }

    fn charge_server_cpu(&self, cpu_ns: u64) {
        let _ = self
            .dm
            .rpc(0, CLIQUEMAP_SERVICE, &cpu_ns.to_le_bytes(), &mut []);
    }

    fn maybe_sync_access_records(&mut self) {
        self.buffered_accesses += 1;
        if self.buffered_accesses >= CliqueMapConfig::ACCESS_SYNC_BATCH {
            let cpu = CliqueMapConfig::ACCESS_MERGE_CPU_NS * self.buffered_accesses as u64;
            self.charge_server_cpu(cpu);
            self.buffered_accesses = 0;
        }
    }
}

impl ditto_workloads::CacheBackend for CliqueMapClient {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.dm.begin_op();
        // One RMA read for the index bucket, one for the value.
        let scratch = ditto_dm::RemoteAddr::new(0, 64);
        let _ = self.dm.read(scratch, 64);
        let result = {
            let state = self.state.lock();
            if let Some(obj) = state.objects.get(key) {
                let len = obj.value.len();
                let value = obj.value.clone();
                drop(state);
                let _ = self.dm.read(scratch, len.max(64));
                self.state.lock().touch(self.config.policy, key);
                Some(value)
            } else {
                None
            }
        };
        if result.is_some() {
            self.maybe_sync_access_records();
        }
        self.dm.end_op();
        result
    }

    fn set(&mut self, key: &[u8], value: &[u8]) {
        self.dm.begin_op();
        // Sets are an RPC handled entirely by the server CPU.
        self.charge_server_cpu(CliqueMapConfig::SET_CPU_NS);
        self.state
            .lock()
            .insert(self.config.policy, self.config.capacity_objects, key, value);
        self.dm.end_op();
    }

    fn miss_penalty(&mut self, us: u64) {
        self.dm.sleep_us(us);
    }

    fn backend_name(&self) -> &str {
        match self.config.policy {
            ServerPolicy::Lru => "cm-lru",
            ServerPolicy::Lfu => "cm-lfu",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dm::DmConfig;
    use ditto_workloads::CacheBackend;

    fn cache(policy: ServerPolicy, capacity: u64) -> CliqueMapCache {
        let pool = MemoryPool::new(DmConfig::small());
        let config = CliqueMapConfig {
            capacity_objects: capacity,
            policy,
        };
        CliqueMapCache::new(pool, config)
    }

    #[test]
    fn set_then_get_roundtrip() {
        let cache = cache(ServerPolicy::Lru, 100);
        let mut client = cache.client();
        client.set(b"a", b"alpha");
        assert_eq!(client.get(b"a").as_deref(), Some(&b"alpha"[..]));
        assert_eq!(client.get(b"b"), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_policy_evicts_least_recent() {
        let cache = cache(ServerPolicy::Lru, 3);
        let mut client = cache.client();
        client.set(b"a", b"1");
        client.set(b"b", b"2");
        client.set(b"c", b"3");
        let _ = client.get(b"a");
        client.set(b"d", b"4");
        assert!(client.get(b"b").is_none(), "LRU victim should be b");
        assert!(client.get(b"a").is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn lfu_policy_evicts_least_frequent() {
        let cache = cache(ServerPolicy::Lfu, 3);
        let mut client = cache.client();
        client.set(b"a", b"1");
        client.set(b"b", b"2");
        client.set(b"c", b"3");
        for _ in 0..5 {
            let _ = client.get(b"a");
            let _ = client.get(b"c");
        }
        client.set(b"d", b"4");
        assert!(client.get(b"b").is_none(), "LFU victim should be b");
        assert!(client.get(b"a").is_some());
        assert!(client.get(b"c").is_some());
    }

    #[test]
    fn sets_consume_server_cpu() {
        let cache = cache(ServerPolicy::Lru, 1_000);
        let mut client = cache.client();
        cache.pool().reset_stats();
        for i in 0..100u64 {
            client.set(format!("k{i}").as_bytes(), b"v");
        }
        let snap = &cache.pool().stats().node_snapshots()[0];
        assert_eq!(snap.rpcs, 100);
        assert!(snap.rpc_cpu_ns >= 100 * 1_800);
    }

    /// A CPU charge is one RPC with an 8-byte request and an empty reply.
    #[test]
    fn a_cpu_charge_is_one_eight_byte_rpc() {
        let cache = cache(ServerPolicy::Lru, 10);
        let client = cache.client();
        client.charge_server_cpu(1_000);
        let snap = &cache.pool().stats().node_snapshots()[0];
        assert_eq!((snap.rpcs, snap.messages, snap.bytes), (1, 1, 8));
        assert_eq!(snap.rpc_cpu_ns, 1_000 + DmConfig::RPC_BASE_CPU_NS);
    }

    #[test]
    fn gets_bypass_server_cpu_except_for_access_sync() {
        let cache = cache(ServerPolicy::Lru, 1_000);
        let mut client = cache.client();
        client.set(b"hot", b"x");
        cache.pool().reset_stats();
        for _ in 0..63 {
            let _ = client.get(b"hot");
        }
        let before_sync = cache.pool().stats().node_snapshots()[0].rpcs;
        assert_eq!(before_sync, 0, "no RPC before the access batch fills");
        let _ = client.get(b"hot");
        let after_sync = cache.pool().stats().node_snapshots()[0].rpcs;
        assert_eq!(after_sync, 1, "access records synced once per batch");
        assert!(cache.pool().stats().node_snapshots()[0].reads >= 64);
    }

    #[test]
    fn capacity_is_enforced() {
        let cache = cache(ServerPolicy::Lru, 50);
        let mut client = cache.client();
        for i in 0..500u64 {
            client.set(format!("k{i}").as_bytes(), b"v");
        }
        assert!(cache.len() <= 50);
        assert_eq!(cache.evictions(), 450);
    }

    #[test]
    fn concurrent_clients_share_the_store() {
        let cache = cache(ServerPolicy::Lru, 10_000);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    let mut client = cache.client();
                    for i in 0..200u64 {
                        client.set(format!("t{t}-{i}").as_bytes(), b"v");
                    }
                });
            }
        });
        assert_eq!(cache.len(), 800);
    }
}
