//! The memory pool: the set of memory nodes, the placement topology and
//! shared accounting.

use crate::addr::RemoteAddr;
use crate::alloc::AllocService;
use crate::client::DmClient;
use crate::config::DmConfig;
use crate::error::{DmError, DmResult};
use crate::fault::FaultInjector;
use crate::memnode::MemoryNode;
use crate::obs::{Event, EventKind, EventLog, POOL_EVENT_CLIENT};
use crate::rpc::{RpcHandler, ALLOC_SERVICE};
use crate::stats::PoolStats;
use crate::topology::{PoolTopology, MAX_POOL_NODES};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct PoolInner {
    config: DmConfig,
    /// All nodes ever added, indexed by id.  Nodes are never removed —
    /// draining only deactivates them in the topology, so data already
    /// resident stays readable.
    nodes: RwLock<Vec<Arc<MemoryNode>>>,
    topology: RwLock<PoolTopology>,
    /// Lock-free mirror of the topology epoch, so clients can validate
    /// their cached placement snapshots without taking the lock.
    epoch: AtomicU64,
    /// Pool-wide RPC services, replayed onto nodes that join later.
    pool_handlers: Mutex<Vec<(u8, Arc<dyn RpcHandler>)>>,
    stats: PoolStats,
    /// Runtime face of `config.fault`; inert when no plan is configured.
    fault: FaultInjector,
    /// Pool-wide structured log of rare events (fault injections,
    /// migration transitions, recovery phases); bounded ring, see
    /// [`crate::obs::EventLog`].
    events: Mutex<EventLog>,
}

/// A handle to the disaggregated memory pool.
///
/// The pool is cheaply clonable; every clone refers to the same memory nodes
/// and statistics.  Client threads obtain per-thread [`DmClient`] connections
/// through [`MemoryPool::connect`].
///
/// The pool is **elastic**: [`MemoryPool::add_node`] brings a new memory
/// node online and [`MemoryPool::drain_node`] takes one out of the active
/// placement set (its resident data keeps serving reads).  Both bump the
/// [`MemoryPool::resize_epoch`] that clients validate their cached
/// [`PoolTopology`] snapshots against.
#[derive(Clone)]
pub struct MemoryPool {
    inner: Arc<PoolInner>,
}

impl MemoryPool {
    /// Creates a pool as described by `config` and registers the built-in
    /// segment-allocation service on every node.
    pub fn new(config: DmConfig) -> Self {
        let caps = vec![config.memory_node_capacity; config.num_memory_nodes.max(1) as usize];
        Self::with_capacities(config, &caps)
    }

    /// Creates a pool whose nodes have the given (possibly heterogeneous)
    /// capacities; `capacities.len()` overrides `config.num_memory_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or exceeds the pool node limit.
    pub fn with_capacities(config: DmConfig, capacities: &[u64]) -> Self {
        assert!(
            !capacities.is_empty(),
            "a pool needs at least one memory node"
        );
        assert!(
            capacities.len() <= MAX_POOL_NODES,
            "a pool is limited to {MAX_POOL_NODES} memory nodes"
        );
        let nodes: Vec<Arc<MemoryNode>> = capacities
            .iter()
            .enumerate()
            .map(|(id, &cap)| Arc::new(MemoryNode::new(id as u16, cap)))
            .collect();
        let num_nodes = nodes.len() as u16;
        let stats = PoolStats::new(num_nodes);
        let topology = PoolTopology::new(num_nodes);
        let fault = FaultInjector::new(config.fault.clone());
        let events = Mutex::new(EventLog::new(EventLog::POOL_CAPACITY));
        let pool = MemoryPool {
            inner: Arc::new(PoolInner {
                config,
                nodes: RwLock::new(nodes),
                topology: RwLock::new(topology),
                epoch: AtomicU64::new(0),
                pool_handlers: Mutex::new(Vec::new()),
                stats,
                fault,
                events,
            }),
        };
        let alloc = Arc::new(AllocService::new());
        pool.register_handler(ALLOC_SERVICE, alloc);
        pool
    }

    /// The pool configuration.
    pub fn config(&self) -> &DmConfig {
        &self.inner.config
    }

    /// Shared resource accounting.
    pub fn stats(&self) -> &PoolStats {
        &self.inner.stats
    }

    /// The fault injector built from [`DmConfig::fault`] (inert when no
    /// plan is configured).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.inner.fault
    }

    /// Resets all accounting counters (e.g. after a warm-up phase).
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
    }

    /// Appends a rare event to the pool's structured event log, stamped
    /// with the observer's simulated time (`client_id` may be
    /// [`POOL_EVENT_CLIENT`] for pool-level events).  Bounded: overflow
    /// overwrites the oldest entry and counts into
    /// [`crate::stats::ObsSnapshot::events_dropped`].
    pub fn record_event(&self, at_ns: u64, client_id: u32, kind: EventKind) {
        let (dropped, _) = self.inner.events.lock().push(Event {
            at_ns,
            client_id,
            kind,
        });
        self.inner.stats.record_event_logged(dropped);
    }

    /// The retained events, oldest first.
    pub fn events_snapshot(&self) -> Vec<Event> {
        self.inner.events.lock().in_order()
    }

    /// The last `n` retained events, oldest first (the post-mortem tail;
    /// see [`crate::obs::with_event_postmortem`]).
    pub fn event_tail(&self, n: usize) -> Vec<Event> {
        self.inner.events.lock().tail(n)
    }

    /// Number of memory nodes ever added to the pool (including drained
    /// ones, which keep serving resident data).
    pub fn num_nodes(&self) -> u16 {
        self.inner.nodes.read().len() as u16
    }

    /// Returns the memory node with id `mn_id`.
    ///
    /// Nodes decommissioned with [`MemoryPool::remove_node`] yield a typed
    /// [`DmError::NodeRemoved`] instead of silently serving.
    pub fn node(&self, mn_id: u16) -> DmResult<Arc<MemoryNode>> {
        let node = self
            .inner
            .nodes
            .read()
            .get(mn_id as usize)
            .cloned()
            .ok_or(DmError::NoSuchNode { mn_id })?;
        if node.is_decommissioned() {
            return Err(DmError::NodeRemoved { mn_id });
        }
        Ok(node)
    }

    /// A snapshot of every node handle, indexed by node id (used by clients
    /// to cache node lookups between resize epochs).
    pub fn nodes_snapshot(&self) -> Vec<Arc<MemoryNode>> {
        self.inner.nodes.read().clone()
    }

    /// A snapshot of the placement topology.
    pub fn topology(&self) -> PoolTopology {
        self.inner.topology.read().clone()
    }

    /// The current resize epoch (bumped by every add/drain); clients compare
    /// it against the epoch of their cached [`PoolTopology`] snapshot.
    pub fn resize_epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Brings a new memory node online (capacity `config.memory_node_capacity`),
    /// registers the pool-wide RPC services on it, activates it in the
    /// topology and bumps the resize epoch.
    ///
    /// Returns the new node's id.
    pub fn add_node(&self) -> DmResult<u16> {
        let mut nodes = self.inner.nodes.write();
        if nodes.len() >= MAX_POOL_NODES {
            return Err(DmError::Topology {
                reason: format!("pool is limited to {MAX_POOL_NODES} memory nodes"),
            });
        }
        let id = nodes.len() as u16;
        let node = Arc::new(MemoryNode::new(id, self.inner.config.memory_node_capacity));
        for (service, handler) in self.inner.pool_handlers.lock().iter() {
            node.register_handler(*service, handler.clone());
        }
        nodes.push(node);
        drop(nodes);
        self.inner.stats.register_node();
        let mut topology = self.inner.topology.write();
        topology.add_node(id)?;
        let epoch = topology.epoch();
        self.inner.epoch.store(epoch, Ordering::Release);
        drop(topology);
        self.record_event(
            self.inner.stats.max_client_clock_ns(),
            POOL_EVENT_CLIENT,
            EventKind::EpochBump { epoch },
        );
        Ok(id)
    }

    /// Takes `mn_id` out of the active placement set and bumps the resize
    /// epoch.  No new stripes or segments land on a drained node; data
    /// already resident keeps serving reads, which is what makes the shrink
    /// window graceful.  An online bucket-range migration (see
    /// `ditto_dm::migration`) then drains the node **to empty** — once its
    /// resident object bytes reach zero it can be decommissioned with
    /// [`MemoryPool::remove_node`].
    pub fn drain_node(&self, mn_id: u16) -> DmResult<()> {
        let mut topology = self.inner.topology.write();
        topology.drain_node(mn_id)?;
        let epoch = topology.epoch();
        self.inner.epoch.store(epoch, Ordering::Release);
        drop(topology);
        self.record_event(
            self.inner.stats.max_client_clock_ns(),
            POOL_EVENT_CLIENT,
            EventKind::EpochBump { epoch },
        );
        Ok(())
    }

    /// Decommissions a node that has been drained **to empty**: the node
    /// must be out of the active placement set and hold zero resident
    /// object bytes.  Afterwards [`MemoryPool::node`] returns a typed
    /// [`DmError::NodeRemoved`] for it instead of silently serving.  Verbs
    /// through handles cached before the removal keep working (the arena
    /// stays alive) so that auxiliary structures which have not migrated
    /// yet — e.g. history-counter shards — drain naturally instead of
    /// crashing the data path.
    pub fn remove_node(&self, mn_id: u16) -> DmResult<()> {
        if self.inner.topology.read().is_active(mn_id) {
            return Err(DmError::Topology {
                reason: format!("memory node {mn_id} is still active; drain it first"),
            });
        }
        let node = self.node(mn_id)?;
        let resident = self.inner.stats.resident_bytes_on(mn_id);
        if resident > 0 {
            return Err(DmError::Topology {
                reason: format!(
                    "memory node {mn_id} still holds {resident} resident object bytes; \
                     pump the migration to empty before removing it"
                ),
            });
        }
        node.decommission();
        Ok(())
    }

    /// Bumps the resize epoch without a membership change.  Stripe-migration
    /// cutovers piggyback on the resize epoch through this: committing a
    /// stripe on its new node invalidates every client's cached placement
    /// snapshot, so redirected lookups take effect immediately.
    pub fn bump_resize_epoch(&self) {
        let mut topology = self.inner.topology.write();
        topology.bump_epoch();
        let epoch = topology.epoch();
        self.inner.epoch.store(epoch, Ordering::Release);
        drop(topology);
        self.record_event(
            self.inner.stats.max_client_clock_ns(),
            POOL_EVENT_CLIENT,
            EventKind::EpochBump { epoch },
        );
    }

    /// Resident object bytes currently accounted to node `mn_id` (see
    /// [`crate::PoolStats::resident_bytes_on`]); the drain-to-empty signal.
    pub fn resident_object_bytes(&self, mn_id: u16) -> u64 {
        self.inner.stats.resident_bytes_on(mn_id)
    }

    /// Opens a new client connection with its own simulated clock.
    pub fn connect(&self) -> DmClient {
        let id = self.inner.stats.next_client_id() as u32;
        DmClient::new(self.clone(), id)
    }

    /// Reserves `size` bytes on memory node 0 (setup-time allocation for
    /// fixed structures such as the hash table or global counters).
    pub fn reserve(&self, size: u64) -> DmResult<RemoteAddr> {
        self.reserve_on(0, size)
    }

    /// Reserves `size` bytes on the given memory node.
    pub fn reserve_on(&self, mn_id: u16, size: u64) -> DmResult<RemoteAddr> {
        let node = self.node(mn_id)?;
        let offset = node.reserve(size)?;
        Ok(RemoteAddr::new(mn_id, offset))
    }

    /// Registers an RPC service on every memory node, including nodes added
    /// later.
    pub fn register_handler(&self, service: u8, handler: Arc<dyn RpcHandler>) {
        let mut handlers = self.inner.pool_handlers.lock();
        handlers.retain(|(s, _)| *s != service);
        handlers.push((service, handler.clone()));
        drop(handlers);
        for node in self.inner.nodes.read().iter() {
            node.register_handler(service, handler.clone());
        }
    }

    /// Total bytes used (high-water mark) across all nodes.
    pub fn used_bytes(&self) -> u64 {
        self.inner.nodes.read().iter().map(|n| n.used_bytes()).sum()
    }

    /// Total capacity across all nodes in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.nodes.read().iter().map(|n| n.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocService;
    use crate::rpc::wire;

    #[test]
    fn pool_creates_configured_nodes() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(3));
        assert_eq!(pool.num_nodes(), 3);
        assert!(pool.node(2).is_ok());
        assert!(matches!(
            pool.node(3),
            Err(DmError::NoSuchNode { mn_id: 3 })
        ));
        assert_eq!(pool.capacity(), 3 * DmConfig::small().memory_node_capacity);
        assert_eq!(pool.topology().active(), &[0, 1, 2]);
    }

    #[test]
    fn reserve_returns_distinct_addresses() {
        let pool = MemoryPool::new(DmConfig::small());
        let a = pool.reserve(128).unwrap();
        let b = pool.reserve(128).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.mn_id, 0);
    }

    #[test]
    fn connect_assigns_unique_client_ids() {
        let pool = MemoryPool::new(DmConfig::small());
        let a = pool.connect();
        let b = pool.connect();
        assert_ne!(a.client_id(), b.client_id());
    }

    #[test]
    fn handlers_can_be_registered_pool_wide() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        pool.register_handler(
            42,
            Arc::new(|_n: &MemoryNode, _r: &[u8], reply: &mut [u8]| {
                wire::reply(reply, 1)?[0] = 1;
                Ok((1, 10))
            }),
        );
        for mn in 0..2 {
            let mut reply = [0u8; 1];
            let node = pool.node(mn).unwrap();
            assert_eq!(node.dispatch_rpc(42, &[], &mut reply), Ok((1, 10)));
            assert_eq!(reply, [1]);
        }
    }

    #[test]
    fn alloc_service_registered_by_default() {
        let pool = MemoryPool::new(DmConfig::small());
        // The allocation service answers on every node; detailed behaviour is
        // covered in `alloc::tests`.
        assert!(pool
            .node(0)
            .unwrap()
            .dispatch_rpc(ALLOC_SERVICE, &[], &mut [0; AllocService::REPLY_LEN])
            .is_err());
    }

    #[test]
    fn clones_share_state() {
        let pool = MemoryPool::new(DmConfig::small());
        let clone = pool.clone();
        let addr = pool.reserve(64).unwrap();
        clone
            .node(0)
            .unwrap()
            .write(addr.offset, b"shared")
            .unwrap();
        assert_eq!(
            pool.node(0).unwrap().read(addr.offset, 6).unwrap(),
            b"shared"
        );
    }

    #[test]
    fn add_node_grows_pool_and_bumps_epoch() {
        let pool = MemoryPool::new(DmConfig::small());
        assert_eq!(pool.resize_epoch(), 0);
        let id = pool.add_node().unwrap();
        assert_eq!(id, 1);
        assert_eq!(pool.num_nodes(), 2);
        assert_eq!(pool.resize_epoch(), 1);
        assert!(pool.topology().is_active(1));
        // The new node can immediately serve reservations and verbs.
        let addr = pool.reserve_on(1, 64).unwrap();
        let client = pool.connect();
        client.write(addr, b"fresh");
        assert_eq!(client.read(addr, 5), b"fresh");
    }

    #[test]
    fn added_nodes_answer_pool_wide_rpc_services() {
        let pool = MemoryPool::new(DmConfig::small());
        pool.register_handler(
            42,
            Arc::new(|_n: &MemoryNode, _r: &[u8], reply: &mut [u8]| {
                wire::reply(reply, 1)?[0] = 9;
                Ok((1, 10))
            }),
        );
        let id = pool.add_node().unwrap();
        let mut reply = [0u8; 1];
        let node = pool.node(id).unwrap();
        assert_eq!(node.dispatch_rpc(42, &[], &mut reply), Ok((1, 10)));
        assert_eq!(reply, [9]);
        // The built-in allocation service works on the new node too.
        let client = pool.connect();
        assert!(AllocService::alloc(&client, id, 4096).is_ok());
    }

    #[test]
    fn drained_nodes_keep_serving_reads() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let addr = pool.reserve_on(1, 64).unwrap();
        let client = pool.connect();
        client.write(addr, b"resident");
        pool.drain_node(1).unwrap();
        assert!(!pool.topology().is_active(1));
        assert_eq!(pool.resize_epoch(), 1);
        assert_eq!(client.read(addr, 8), b"resident");
    }

    #[test]
    fn draining_the_last_node_is_rejected() {
        let pool = MemoryPool::new(DmConfig::small());
        assert!(matches!(pool.drain_node(0), Err(DmError::Topology { .. })));
        assert_eq!(pool.resize_epoch(), 0);
    }

    #[test]
    fn remove_node_requires_drain_to_empty() {
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        // Still active → refused.
        assert!(matches!(pool.remove_node(1), Err(DmError::Topology { .. })));
        pool.drain_node(1).unwrap();
        // Resident object bytes pending → refused.
        pool.stats().record_resident_alloc(1, 128);
        assert_eq!(pool.resident_object_bytes(1), 128);
        assert!(matches!(pool.remove_node(1), Err(DmError::Topology { .. })));
        pool.stats().record_resident_free(1, 128);
        pool.remove_node(1).unwrap();
        // Node handle lookups now fail with a typed error.
        assert!(matches!(
            pool.node(1),
            Err(DmError::NodeRemoved { mn_id: 1 })
        ));
        assert!(matches!(
            pool.remove_node(1),
            Err(DmError::NodeRemoved { mn_id: 1 })
        ));
        assert!(matches!(
            pool.reserve_on(1, 64),
            Err(DmError::NodeRemoved { .. })
        ));
        // The other node keeps serving.
        assert!(pool.node(0).is_ok());
    }

    #[test]
    fn cached_handles_keep_serving_after_remove_node() {
        // Auxiliary structures (history shards) may still reference a
        // removed node until they migrate too; their verbs must not crash.
        let pool = MemoryPool::new(DmConfig::small().with_memory_nodes(2));
        let addr = pool.reserve_on(1, 64).unwrap();
        let client = pool.connect();
        client.write(addr, b"counter");
        pool.drain_node(1).unwrap();
        pool.remove_node(1).unwrap();
        assert_eq!(client.read(addr, 7), b"counter");
        // New handle lookups still fail typed.
        assert!(matches!(
            pool.node(1),
            Err(DmError::NodeRemoved { mn_id: 1 })
        ));
    }

    #[test]
    fn bump_resize_epoch_piggybacks_on_the_topology_epoch() {
        let pool = MemoryPool::new(DmConfig::small());
        assert_eq!(pool.resize_epoch(), 0);
        pool.bump_resize_epoch();
        assert_eq!(pool.resize_epoch(), 1);
        assert_eq!(pool.topology().epoch(), 1);
        // A later membership change keeps the epoch monotonic.
        pool.add_node().unwrap();
        assert_eq!(pool.resize_epoch(), 2);
    }

    #[test]
    fn heterogeneous_capacities_are_respected() {
        let pool = MemoryPool::with_capacities(DmConfig::small(), &[1 << 20, 1 << 21]);
        assert_eq!(pool.num_nodes(), 2);
        assert_eq!(pool.node(0).unwrap().capacity(), 1 << 20);
        assert_eq!(pool.node(1).unwrap().capacity(), 1 << 21);
    }
}
