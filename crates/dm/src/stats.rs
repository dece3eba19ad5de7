//! Resource accounting for the simulated DM fabric.
//!
//! Throughput on disaggregated memory is bounded by one of three resources:
//! the compute available to clients (their simulated clocks), the RNIC
//! message rate of a memory node, or the controller CPU of a memory node.
//! [`PoolStats`] tracks all three; [`RunReport`] turns a measurement interval
//! into throughput / latency numbers by stretching the elapsed time to the
//! most-saturated resource, which is the mechanism behind every throughput
//! figure in the paper's evaluation.

use crate::config::DmConfig;
use crate::histogram::LatencyHistogram;
use crate::obs::Phase;
use crate::topology::MAX_POOL_NODES;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Kinds of one-sided verbs tracked by the accounting layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbKind {
    /// One-sided RDMA READ.
    Read,
    /// One-sided RDMA WRITE.
    Write,
    /// Atomic compare-and-swap.
    Cas,
    /// Atomic fetch-and-add.
    Faa,
    /// Two-sided RPC to the memory-node controller.
    Rpc,
}

/// Per-memory-node counters.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Total RNIC messages (all verbs, including RPC requests).
    pub messages: AtomicU64,
    /// READ verbs.
    pub reads: AtomicU64,
    /// WRITE verbs.
    pub writes: AtomicU64,
    /// CAS verbs.
    pub cas: AtomicU64,
    /// FAA verbs.
    pub faa: AtomicU64,
    /// RPC requests.
    pub rpcs: AtomicU64,
    /// Controller CPU time consumed by RPC handlers, in nanoseconds.
    pub rpc_cpu_ns: AtomicU64,
    /// Bytes moved to/from this node.
    pub bytes: AtomicU64,
    /// Doorbells rung at this node's RNIC: one per posted round
    /// ([`crate::WorkQueue::ring`]) that includes at least one WQE for this
    /// node.  A synchronous single-verb call is not included.
    pub doorbells: AtomicU64,
}

impl NodeStats {
    fn record(&self, kind: VerbKind, bytes: usize) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let counter = match kind {
            VerbKind::Read => &self.reads,
            VerbKind::Write => &self.writes,
            VerbKind::Cas => &self.cas,
            VerbKind::Faa => &self.faa,
            VerbKind::Rpc => &self.rpcs,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            messages: self.messages.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            cas: self.cas.load(Ordering::Relaxed),
            faa: self.faa.load(Ordering::Relaxed),
            rpcs: self.rpcs.load(Ordering::Relaxed),
            rpc_cpu_ns: self.rpc_cpu_ns.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            doorbells: self.doorbells.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one node's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// Total RNIC messages.
    pub messages: u64,
    /// READ verbs.
    pub reads: u64,
    /// WRITE verbs.
    pub writes: u64,
    /// CAS verbs.
    pub cas: u64,
    /// FAA verbs.
    pub faa: u64,
    /// RPC requests.
    pub rpcs: u64,
    /// Controller CPU nanoseconds.
    pub rpc_cpu_ns: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Doorbells rung at this node's RNIC.
    pub doorbells: u64,
}

impl NodeSnapshot {
    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn delta(&self, earlier: &NodeSnapshot) -> NodeSnapshot {
        NodeSnapshot {
            messages: self.messages.saturating_sub(earlier.messages),
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            cas: self.cas.saturating_sub(earlier.cas),
            faa: self.faa.saturating_sub(earlier.faa),
            rpcs: self.rpcs.saturating_sub(earlier.rpcs),
            rpc_cpu_ns: self.rpc_cpu_ns.saturating_sub(earlier.rpc_cpu_ns),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            doorbells: self.doorbells.saturating_sub(earlier.doorbells),
        }
    }
}

/// Shared accounting for a [`crate::MemoryPool`].
///
/// Counters for every possible node (up to [`MAX_POOL_NODES`]) are
/// pre-allocated so that [`crate::MemoryPool::add_node`] never has to grow
/// the hot-path counter array; only the first [`PoolStats::num_nodes`]
/// entries are reported by [`PoolStats::node_snapshots`].
pub struct PoolStats {
    nodes: Vec<NodeStats>,
    active_nodes: AtomicUsize,
    ops: AtomicU64,
    op_latency: LatencyHistogram,
    max_client_clock_ns: AtomicU64,
    clock_baseline_ns: AtomicU64,
    clients_spawned: AtomicU64,
    doorbells: AtomicU64,
    batched_verbs: AtomicU64,
    largest_batch: AtomicU64,
    largest_fanout: AtomicU64,
    /// WQEs posted *signalled* (their completion is polled from the CQ).
    signalled_wqes: AtomicU64,
    /// WQEs posted *unsignalled* (fire-and-forget; never waited for).
    unsignalled_wqes: AtomicU64,
    /// Successful completion-queue polls.
    cq_polls: AtomicU64,
    /// Resident *object* bytes per node: allocations minus frees as reported
    /// by the cache layer.  This is pool **state**, not interval traffic, so
    /// [`PoolStats::reset`] leaves it alone; a drained node's entry reaching
    /// zero is the signal that it can be decommissioned.
    resident_bytes: Vec<AtomicU64>,
    /// Bucket-array bytes copied between nodes by stripe migrations.
    migrated_bytes: AtomicU64,
    /// Objects relocated between nodes (migration pump + cooperative Get).
    migrated_objects: AtomicU64,
    /// Object bytes relocated between nodes.
    migrated_object_bytes: AtomicU64,
    /// Stripe cutovers committed (source → destination switches).
    stripe_cutovers: AtomicU64,
    /// Slot-CAS attempts that observed an unexpected value and forced the
    /// issuing operation to retry.  Lifetime counter: survives
    /// [`PoolStats::reset`] (see [`PoolStats::contention`]).
    cas_retries: AtomicU64,
    /// [`crate::RemoteLock`] acquisition attempts (CAS issues against a lock
    /// word, successful or not).  Survives [`PoolStats::reset`].
    lock_acquire_attempts: AtomicU64,
    /// [`crate::RemoteLock`] acquisitions that eventually succeeded.
    /// Survives [`PoolStats::reset`].
    lock_acquisitions: AtomicU64,
    /// Failed lock-acquisition attempts that waited and retried
    /// (`lock_acquire_attempts - lock_acquisitions`).  Survives
    /// [`PoolStats::reset`].
    lock_wait_retries: AtomicU64,
    /// Simulated nanoseconds clients spent backing off after failed CAS /
    /// lock attempts.  Survives [`PoolStats::reset`].
    backoff_ns: AtomicU64,
    /// Verbs that completed in error (injected faults plus typed
    /// node-removed rejections), per node.  Lifetime: survives
    /// [`PoolStats::reset`] (see [`PoolStats::faults`]).
    verb_faults_per_node: Vec<AtomicU64>,
    /// Verbs that completed in error pool-wide.  Survives reset.
    verb_failures: AtomicU64,
    /// Verbs that timed out pool-wide.  Survives reset.
    verb_timeouts: AtomicU64,
    /// Higher-layer retries of faulted verbs.  Survives reset.
    verb_retries: AtomicU64,
    /// Simulated nanoseconds spent backing off between verb retries.
    /// Survives reset.
    retry_backoff_ns: AtomicU64,
    /// Expired lock leases taken over via CAS steal.  Survives reset.
    lock_steals: AtomicU64,
    /// Lock releases fenced off because the lease had been stolen.
    /// Survives reset.
    fenced_releases: AtomicU64,
    /// Lock acquisitions that gave up after burning their whole retry
    /// budget against a live holder.  Survives reset.
    lock_exhaustions: AtomicU64,
    /// Locks reclaimed from crashed clients by a recovery pass.
    /// Survives reset.
    locks_reclaimed: AtomicU64,
    /// Orphaned objects swept by a crash-recovery pass.  Survives reset.
    recovered_objects: AtomicU64,
    /// Orphaned object bytes swept by a crash-recovery pass.  Survives
    /// reset.
    recovered_bytes: AtomicU64,
    /// Flight-recorder spans recorded pool-wide.  Lifetime: survives
    /// [`PoolStats::reset`] (see [`PoolStats::obs`]).
    spans_recorded: AtomicU64,
    /// Flight-recorder spans lost to ring overwrites.  Survives reset.
    spans_dropped: AtomicU64,
    /// Flight-recorder ring wrap-arounds (a drop landing on slot 0).
    /// Survives reset.
    recorder_wraps: AtomicU64,
    /// Structured events recorded into the pool event log.  Survives reset.
    events_recorded: AtomicU64,
    /// Structured events lost to ring overwrites.  Survives reset.
    events_dropped: AtomicU64,
    /// Ops whose span sets the armed flight recorder kept (sampling draw
    /// hit; see [`DmConfig::flight_recorder_sample_one_in`]).  Survives
    /// reset.
    ops_sampled: AtomicU64,
    /// Ops the armed flight recorder's sampling draw skipped.  Survives
    /// reset.
    ops_skipped: AtomicU64,
    /// Per-phase span-latency histograms (indexed by
    /// [`Phase::index`]), merged in from each client's local set when the
    /// client drops.  Like the obs counters this is lifetime state: it
    /// survives [`PoolStats::reset`], so the exposition's phase summaries
    /// describe the whole run.
    phase_latency: Vec<LatencyHistogram>,
}

/// Point-in-time copy of the pool's contention counters.
///
/// These are *lifetime* counters — [`PoolStats::reset`] deliberately leaves
/// them alone so contention surviving across measurement phases stays
/// visible.  Per-interval figures therefore come from snapshot deltas:
/// capture one snapshot before the interval, one after, and
/// [`ContentionSnapshot::delta`] the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionSnapshot {
    /// Failed slot-CAS attempts that forced a retry.
    pub cas_retries: u64,
    /// Lock-acquisition attempts (successful or not).
    pub lock_acquire_attempts: u64,
    /// Lock acquisitions that succeeded.
    pub lock_acquisitions: u64,
    /// Failed lock attempts that backed off and retried.
    pub lock_wait_retries: u64,
    /// Simulated nanoseconds spent in CAS/lock back-off.
    pub backoff_ns: u64,
}

impl ContentionSnapshot {
    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn delta(&self, earlier: &ContentionSnapshot) -> ContentionSnapshot {
        ContentionSnapshot {
            cas_retries: self.cas_retries.saturating_sub(earlier.cas_retries),
            lock_acquire_attempts: self
                .lock_acquire_attempts
                .saturating_sub(earlier.lock_acquire_attempts),
            lock_acquisitions: self
                .lock_acquisitions
                .saturating_sub(earlier.lock_acquisitions),
            lock_wait_retries: self
                .lock_wait_retries
                .saturating_sub(earlier.lock_wait_retries),
            backoff_ns: self.backoff_ns.saturating_sub(earlier.backoff_ns),
        }
    }
}

/// Point-in-time copy of the pool's fault / retry / recovery counters.
///
/// Like [`ContentionSnapshot`] these are *lifetime* counters —
/// [`PoolStats::reset`] leaves them alone, so faults weathered during a
/// warm-up phase stay visible.  Per-interval figures come from diffing two
/// snapshots with [`FaultSnapshot::delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSnapshot {
    /// Verbs that completed in error (injected faults and typed
    /// node-removed rejections).  WQEs flushed behind an errored one (see
    /// [`crate::wqe`]) are not faults and are not counted.
    pub verb_failures: u64,
    /// Verbs that timed out.
    pub verb_timeouts: u64,
    /// Higher-layer retries of faulted verbs.
    pub verb_retries: u64,
    /// Simulated nanoseconds spent backing off between verb retries.
    pub retry_backoff_ns: u64,
    /// Expired lock leases taken over via CAS steal.
    pub lock_steals: u64,
    /// Lock releases fenced off because the lease had been stolen.
    pub fenced_releases: u64,
    /// Lock acquisitions that exhausted their retry budget.
    pub lock_exhaustions: u64,
    /// Locks reclaimed from crashed clients by recovery passes.
    pub locks_reclaimed: u64,
    /// Orphaned objects swept by crash-recovery passes.
    pub recovered_objects: u64,
    /// Orphaned object bytes swept by crash-recovery passes.
    pub recovered_bytes: u64,
}

impl FaultSnapshot {
    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn delta(&self, earlier: &FaultSnapshot) -> FaultSnapshot {
        FaultSnapshot {
            verb_failures: self.verb_failures.saturating_sub(earlier.verb_failures),
            verb_timeouts: self.verb_timeouts.saturating_sub(earlier.verb_timeouts),
            verb_retries: self.verb_retries.saturating_sub(earlier.verb_retries),
            retry_backoff_ns: self
                .retry_backoff_ns
                .saturating_sub(earlier.retry_backoff_ns),
            lock_steals: self.lock_steals.saturating_sub(earlier.lock_steals),
            fenced_releases: self.fenced_releases.saturating_sub(earlier.fenced_releases),
            lock_exhaustions: self
                .lock_exhaustions
                .saturating_sub(earlier.lock_exhaustions),
            locks_reclaimed: self.locks_reclaimed.saturating_sub(earlier.locks_reclaimed),
            recovered_objects: self
                .recovered_objects
                .saturating_sub(earlier.recovered_objects),
            recovered_bytes: self.recovered_bytes.saturating_sub(earlier.recovered_bytes),
        }
    }

    /// Total faulted verbs (failures plus timeouts).
    pub fn faulted_verbs(&self) -> u64 {
        self.verb_failures + self.verb_timeouts
    }
}

/// Point-in-time copy of the observability self-accounting counters.
///
/// Like [`ContentionSnapshot`] and [`FaultSnapshot`] these are *lifetime*
/// counters — [`PoolStats::reset`] leaves them alone (a recorder that
/// wrapped during warm-up stays visible).  Per-interval figures come from
/// diffing two snapshots with [`ObsSnapshot::delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Flight-recorder spans recorded.
    pub spans_recorded: u64,
    /// Flight-recorder spans lost to ring overwrites.
    pub spans_dropped: u64,
    /// Flight-recorder ring wrap-arounds.
    pub recorder_wraps: u64,
    /// Structured events recorded into the pool event log.
    pub events_recorded: u64,
    /// Structured events lost to ring overwrites.
    pub events_dropped: u64,
    /// Ops whose span sets the armed recorder's sampling draw kept.
    pub ops_sampled: u64,
    /// Ops the armed recorder's sampling draw skipped.
    pub ops_skipped: u64,
}

impl ObsSnapshot {
    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn delta(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        ObsSnapshot {
            spans_recorded: self.spans_recorded.saturating_sub(earlier.spans_recorded),
            spans_dropped: self.spans_dropped.saturating_sub(earlier.spans_dropped),
            recorder_wraps: self.recorder_wraps.saturating_sub(earlier.recorder_wraps),
            events_recorded: self.events_recorded.saturating_sub(earlier.events_recorded),
            events_dropped: self.events_dropped.saturating_sub(earlier.events_dropped),
            ops_sampled: self.ops_sampled.saturating_sub(earlier.ops_sampled),
            ops_skipped: self.ops_skipped.saturating_sub(earlier.ops_skipped),
        }
    }
}

impl PoolStats {
    /// Creates accounting for `num_nodes` memory nodes.
    pub fn new(num_nodes: u16) -> Self {
        let mut nodes = Vec::with_capacity(MAX_POOL_NODES);
        nodes.resize_with(MAX_POOL_NODES, NodeStats::default);
        let mut resident_bytes = Vec::with_capacity(MAX_POOL_NODES);
        resident_bytes.resize_with(MAX_POOL_NODES, || AtomicU64::new(0));
        PoolStats {
            nodes,
            active_nodes: AtomicUsize::new((num_nodes as usize).clamp(1, MAX_POOL_NODES)),
            ops: AtomicU64::new(0),
            op_latency: LatencyHistogram::new(),
            max_client_clock_ns: AtomicU64::new(0),
            clock_baseline_ns: AtomicU64::new(0),
            clients_spawned: AtomicU64::new(0),
            doorbells: AtomicU64::new(0),
            batched_verbs: AtomicU64::new(0),
            largest_batch: AtomicU64::new(0),
            largest_fanout: AtomicU64::new(0),
            signalled_wqes: AtomicU64::new(0),
            unsignalled_wqes: AtomicU64::new(0),
            cq_polls: AtomicU64::new(0),
            resident_bytes,
            migrated_bytes: AtomicU64::new(0),
            migrated_objects: AtomicU64::new(0),
            migrated_object_bytes: AtomicU64::new(0),
            stripe_cutovers: AtomicU64::new(0),
            cas_retries: AtomicU64::new(0),
            lock_acquire_attempts: AtomicU64::new(0),
            lock_acquisitions: AtomicU64::new(0),
            lock_wait_retries: AtomicU64::new(0),
            backoff_ns: AtomicU64::new(0),
            verb_faults_per_node: {
                let mut v = Vec::with_capacity(MAX_POOL_NODES);
                v.resize_with(MAX_POOL_NODES, || AtomicU64::new(0));
                v
            },
            verb_failures: AtomicU64::new(0),
            verb_timeouts: AtomicU64::new(0),
            verb_retries: AtomicU64::new(0),
            retry_backoff_ns: AtomicU64::new(0),
            lock_steals: AtomicU64::new(0),
            fenced_releases: AtomicU64::new(0),
            lock_exhaustions: AtomicU64::new(0),
            locks_reclaimed: AtomicU64::new(0),
            recovered_objects: AtomicU64::new(0),
            recovered_bytes: AtomicU64::new(0),
            spans_recorded: AtomicU64::new(0),
            spans_dropped: AtomicU64::new(0),
            recorder_wraps: AtomicU64::new(0),
            events_recorded: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            ops_sampled: AtomicU64::new(0),
            ops_skipped: AtomicU64::new(0),
            phase_latency: {
                let mut v = Vec::with_capacity(Phase::COUNT);
                v.resize_with(Phase::COUNT, LatencyHistogram::new);
                v
            },
        }
    }

    /// Registers one more memory node (called by the pool on node add).
    pub fn register_node(&self) {
        let _ = self
            .active_nodes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < MAX_POOL_NODES).then_some(n + 1)
            });
    }

    /// Number of memory nodes currently tracked.
    pub fn num_nodes(&self) -> usize {
        self.active_nodes.load(Ordering::Relaxed)
    }

    /// Records a posted round ([`crate::WorkQueue::ring`], the only caller)
    /// of `verbs` work-queue entries spanning `fanout` distinct memory nodes
    /// (one doorbell rung per node).
    pub fn record_batch(&self, verbs: usize, fanout: usize) {
        self.doorbells.fetch_add(fanout as u64, Ordering::Relaxed);
        self.batched_verbs
            .fetch_add(verbs as u64, Ordering::Relaxed);
        self.largest_batch
            .fetch_max(verbs as u64, Ordering::Relaxed);
        self.largest_fanout
            .fetch_max(fanout as u64, Ordering::Relaxed);
    }

    /// Records one doorbell ring at node `mn_id`'s RNIC.
    pub fn record_node_doorbell(&self, mn_id: u16) {
        if let Some(node) = self.nodes.get(mn_id as usize) {
            node.doorbells.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Doorbells rung by *posted rounds* so far: each
    /// [`crate::WorkQueue::ring`] adds one per distinct node it posts to.  A
    /// synchronous single-verb call (`try_read_into`, `try_cas`, `try_faa`,
    /// …) is one completed round trip and is **not** included — which is why
    /// moving a verb from such a call onto the ring raises this counter
    /// while it removes a round trip.
    pub fn doorbells(&self) -> u64 {
        self.doorbells.load(Ordering::Relaxed)
    }

    /// WQEs handed to the NIC by posted rounds (see [`Self::doorbells`]);
    /// verbs issued through synchronous single-verb calls are not included.
    /// A WQE *flushed* behind an errored one (the flush rule of
    /// [`crate::wqe`]) was posted, so it counts here and in
    /// [`Self::signalled_wqes`]/[`Self::unsignalled_wqes`] — but it never
    /// left the NIC: no node counts a message for it, and it is no fault in
    /// [`FaultSnapshot`].
    pub fn batched_verbs(&self) -> u64 {
        self.batched_verbs.load(Ordering::Relaxed)
    }

    /// Most WQEs one posted round carried (see [`Self::doorbells`]).
    pub fn largest_batch(&self) -> u64 {
        self.largest_batch.load(Ordering::Relaxed)
    }

    /// Largest per-batch memory-node fan-out observed.
    pub fn largest_fanout(&self) -> u64 {
        self.largest_fanout.load(Ordering::Relaxed)
    }

    /// Records one WQE handed to the NIC, signalled or unsignalled.
    pub fn record_wqe(&self, signalled: bool) {
        if signalled {
            self.signalled_wqes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.unsignalled_wqes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one successful completion-queue poll.
    pub fn record_cq_poll(&self) {
        self.cq_polls.fetch_add(1, Ordering::Relaxed);
    }

    /// WQEs posted signalled so far.
    pub fn signalled_wqes(&self) -> u64 {
        self.signalled_wqes.load(Ordering::Relaxed)
    }

    /// WQEs posted unsignalled so far.
    pub fn unsignalled_wqes(&self) -> u64 {
        self.unsignalled_wqes.load(Ordering::Relaxed)
    }

    /// Successful completion-queue polls so far.
    pub fn cq_polls(&self) -> u64 {
        self.cq_polls.load(Ordering::Relaxed)
    }

    /// Mean WQEs per doorbell of the posted rounds — [`Self::batched_verbs`]
    /// over [`Self::doorbells`], so a round fanning out to `k` nodes counts
    /// as `k` batches (0 when nothing was posted).
    pub fn mean_batch_size(&self) -> f64 {
        let doorbells = self.doorbells();
        if doorbells == 0 {
            0.0
        } else {
            self.batched_verbs() as f64 / doorbells as f64
        }
    }

    /// Records `bytes` of object data becoming resident on node `mn_id`.
    pub fn record_resident_alloc(&self, mn_id: u16, bytes: u64) {
        if let Some(node) = self.resident_bytes.get(mn_id as usize) {
            node.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records `bytes` of object data leaving node `mn_id` (eviction,
    /// replacement or relocation).
    pub fn record_resident_free(&self, mn_id: u16, bytes: u64) {
        if let Some(node) = self.resident_bytes.get(mn_id as usize) {
            let _ = node.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
        }
    }

    /// Resident object bytes currently accounted to node `mn_id`.
    pub fn resident_bytes_on(&self, mn_id: u16) -> u64 {
        self.resident_bytes
            .get(mn_id as usize)
            .map(|n| n.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Resident object bytes per node (one entry per tracked node).
    pub fn resident_bytes(&self) -> Vec<u64> {
        self.resident_bytes[..self.num_nodes()]
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .collect()
    }

    /// Records `bytes` of bucket-array data copied by a stripe migration.
    pub fn record_migrated_bytes(&self, bytes: u64) {
        self.migrated_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one object of `bytes` bytes relocated between nodes.
    pub fn record_migrated_object(&self, bytes: u64) {
        self.migrated_objects.fetch_add(1, Ordering::Relaxed);
        self.migrated_object_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one committed stripe cutover.
    pub fn record_stripe_cutover(&self) {
        self.stripe_cutovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket-array bytes copied by stripe migrations so far.
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes.load(Ordering::Relaxed)
    }

    /// Objects relocated between nodes so far.
    pub fn migrated_objects(&self) -> u64 {
        self.migrated_objects.load(Ordering::Relaxed)
    }

    /// Object bytes relocated between nodes so far.
    pub fn migrated_object_bytes(&self) -> u64 {
        self.migrated_object_bytes.load(Ordering::Relaxed)
    }

    /// Stripe cutovers committed so far.
    pub fn stripe_cutovers(&self) -> u64 {
        self.stripe_cutovers.load(Ordering::Relaxed)
    }

    /// Records one failed slot-CAS attempt that forces the issuing
    /// operation to retry, together with the simulated back-off it paid.
    pub fn record_cas_retry(&self, backoff_ns: u64) {
        self.cas_retries.fetch_add(1, Ordering::Relaxed);
        self.backoff_ns.fetch_add(backoff_ns, Ordering::Relaxed);
    }

    /// Records one completed [`crate::RemoteLock`] acquisition that needed
    /// `wait_retries` failed attempts and `backoff_ns` of simulated back-off
    /// before succeeding.
    pub fn record_lock_acquisition(&self, wait_retries: u64, backoff_ns: u64) {
        self.lock_acquire_attempts
            .fetch_add(wait_retries + 1, Ordering::Relaxed);
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.lock_wait_retries
            .fetch_add(wait_retries, Ordering::Relaxed);
        self.backoff_ns.fetch_add(backoff_ns, Ordering::Relaxed);
    }

    /// Failed slot-CAS attempts recorded so far (lifetime).
    pub fn cas_retries(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Lock-acquisition attempts recorded so far (lifetime).
    pub fn lock_acquire_attempts(&self) -> u64 {
        self.lock_acquire_attempts.load(Ordering::Relaxed)
    }

    /// Successful lock acquisitions recorded so far (lifetime).
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Failed, backed-off lock attempts recorded so far (lifetime).
    pub fn lock_wait_retries(&self) -> u64 {
        self.lock_wait_retries.load(Ordering::Relaxed)
    }

    /// Simulated back-off nanoseconds recorded so far (lifetime).
    pub fn backoff_ns(&self) -> u64 {
        self.backoff_ns.load(Ordering::Relaxed)
    }

    /// Snapshot of the lifetime contention counters.  Diff two snapshots
    /// ([`ContentionSnapshot::delta`]) for per-interval figures — these
    /// counters survive [`PoolStats::reset`].
    pub fn contention(&self) -> ContentionSnapshot {
        ContentionSnapshot {
            cas_retries: self.cas_retries(),
            lock_acquire_attempts: self.lock_acquire_attempts(),
            lock_acquisitions: self.lock_acquisitions(),
            lock_wait_retries: self.lock_wait_retries(),
            backoff_ns: self.backoff_ns(),
        }
    }

    /// Records one verb to `mn_id` completing in error.
    pub fn record_verb_failure(&self, mn_id: u16) {
        if let Some(node) = self.verb_faults_per_node.get(mn_id as usize) {
            node.fetch_add(1, Ordering::Relaxed);
        }
        self.verb_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one verb to `mn_id` timing out.
    pub fn record_verb_timeout(&self, mn_id: u16) {
        if let Some(node) = self.verb_faults_per_node.get(mn_id as usize) {
            node.fetch_add(1, Ordering::Relaxed);
        }
        self.verb_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one higher-layer retry of a faulted verb and the simulated
    /// back-off paid before it.
    pub fn record_verb_retry(&self, backoff_ns: u64) {
        self.verb_retries.fetch_add(1, Ordering::Relaxed);
        self.retry_backoff_ns
            .fetch_add(backoff_ns, Ordering::Relaxed);
    }

    /// Records one expired lock lease taken over via CAS steal.
    pub fn record_lock_steal(&self) {
        self.lock_steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one lock release fenced off by a newer lease epoch.
    pub fn record_fenced_release(&self) {
        self.fenced_releases.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one lock acquisition giving up with its retry budget spent:
    /// the failed attempts and back-off still count toward the contention
    /// group (each retry is an attempt that waited), preserving the
    /// `attempts == acquisitions + wait_retries` identity without an
    /// acquisition.
    pub fn record_lock_exhaustion(&self, wait_retries: u64, backoff_ns: u64) {
        self.lock_exhaustions.fetch_add(1, Ordering::Relaxed);
        self.lock_acquire_attempts
            .fetch_add(wait_retries, Ordering::Relaxed);
        self.lock_wait_retries
            .fetch_add(wait_retries, Ordering::Relaxed);
        self.backoff_ns.fetch_add(backoff_ns, Ordering::Relaxed);
    }

    /// Records `locks` locks reclaimed from a crashed client.
    pub fn record_locks_reclaimed(&self, locks: u64) {
        self.locks_reclaimed.fetch_add(locks, Ordering::Relaxed);
    }

    /// Records one orphaned object of `bytes` bytes swept by recovery.
    pub fn record_recovered_object(&self, bytes: u64) {
        self.recovered_objects.fetch_add(1, Ordering::Relaxed);
        self.recovered_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Faulted verbs attributed to node `mn_id` so far (lifetime).
    pub fn verb_faults_on(&self, mn_id: u16) -> u64 {
        self.verb_faults_per_node
            .get(mn_id as usize)
            .map(|n| n.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Snapshot of the lifetime fault / retry / recovery counters.  Diff
    /// two snapshots ([`FaultSnapshot::delta`]) for per-interval figures —
    /// these counters survive [`PoolStats::reset`].
    pub fn faults(&self) -> FaultSnapshot {
        FaultSnapshot {
            verb_failures: self.verb_failures.load(Ordering::Relaxed),
            verb_timeouts: self.verb_timeouts.load(Ordering::Relaxed),
            verb_retries: self.verb_retries.load(Ordering::Relaxed),
            retry_backoff_ns: self.retry_backoff_ns.load(Ordering::Relaxed),
            lock_steals: self.lock_steals.load(Ordering::Relaxed),
            fenced_releases: self.fenced_releases.load(Ordering::Relaxed),
            lock_exhaustions: self.lock_exhaustions.load(Ordering::Relaxed),
            locks_reclaimed: self.locks_reclaimed.load(Ordering::Relaxed),
            recovered_objects: self.recovered_objects.load(Ordering::Relaxed),
            recovered_bytes: self.recovered_bytes.load(Ordering::Relaxed),
        }
    }

    /// Records one flight-recorder span; `dropped` when it overwrote an
    /// older span, `wrapped` when the overwrite started a new lap of the
    /// ring (see [`crate::obs::FlightRecorder::push`]).
    pub fn record_span(&self, dropped: bool, wrapped: bool) {
        self.spans_recorded.fetch_add(1, Ordering::Relaxed);
        if dropped {
            self.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
        if wrapped {
            self.recorder_wraps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one structured event landing in the pool event log;
    /// `dropped` when it overwrote an older event.
    pub fn record_event_logged(&self, dropped: bool) {
        self.events_recorded.fetch_add(1, Ordering::Relaxed);
        if dropped {
            self.events_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the sampling decision the armed flight recorder made for
    /// one op (see [`DmConfig::flight_recorder_sample_one_in`]).
    pub fn record_op_sampled(&self, sampled: bool) {
        if sampled {
            self.ops_sampled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.ops_skipped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the lifetime observability self-accounting counters.
    /// Diff two snapshots ([`ObsSnapshot::delta`]) for per-interval figures
    /// — these counters survive [`PoolStats::reset`].
    pub fn obs(&self) -> ObsSnapshot {
        ObsSnapshot {
            spans_recorded: self.spans_recorded.load(Ordering::Relaxed),
            spans_dropped: self.spans_dropped.load(Ordering::Relaxed),
            recorder_wraps: self.recorder_wraps.load(Ordering::Relaxed),
            events_recorded: self.events_recorded.load(Ordering::Relaxed),
            events_dropped: self.events_dropped.load(Ordering::Relaxed),
            ops_sampled: self.ops_sampled.load(Ordering::Relaxed),
            ops_skipped: self.ops_skipped.load(Ordering::Relaxed),
        }
    }

    /// The pool-wide span-latency histogram for `phase`, merged in from
    /// each client's local histograms when the client drops.  Lifetime
    /// state — survives [`PoolStats::reset`].
    pub fn phase_latency(&self, phase: Phase) -> &LatencyHistogram {
        &self.phase_latency[phase.index()]
    }

    /// Folds a client's local per-phase histograms (indexed by
    /// [`Phase::index`]) into the pool-wide set.  Called once per client,
    /// from [`crate::DmClient`]'s drop path.
    pub fn merge_phase_latency(&self, local: &[LatencyHistogram]) {
        for (pooled, client) in self.phase_latency.iter().zip(local) {
            pooled.merge(client);
        }
    }

    /// Records a verb of `kind` moving `bytes` payload bytes to node `mn_id`.
    pub fn record_verb(&self, mn_id: u16, kind: VerbKind, bytes: usize) {
        if let Some(node) = self.nodes.get(mn_id as usize) {
            node.record(kind, bytes);
        }
    }

    /// Charges `cpu_ns` of controller CPU time on node `mn_id`.
    pub fn record_rpc_cpu(&self, mn_id: u16, cpu_ns: u64) {
        if let Some(node) = self.nodes.get(mn_id as usize) {
            node.rpc_cpu_ns.fetch_add(cpu_ns, Ordering::Relaxed);
        }
    }

    /// Records a completed application-level operation with its latency.
    pub fn record_op(&self, latency_ns: u64) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.op_latency.record(latency_ns);
    }

    /// Publishes a client's final simulated clock (harness bookkeeping).
    ///
    /// Safe to call concurrently with [`PoolStats::reset`]: the published
    /// clock is folded in with a monotone `fetch_max` and the high-water
    /// mark is never zeroed, so a publish racing a reset is attributed to
    /// either the ending interval or the new one — never lost, and the
    /// interval baseline can never end up ahead of a later publish.
    pub fn publish_client_clock(&self, clock_ns: u64) {
        self.max_client_clock_ns
            .fetch_max(clock_ns, Ordering::Relaxed);
    }

    /// Registers that a new client connected (used for ids and reporting).
    pub fn next_client_id(&self) -> u64 {
        self.clients_spawned.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of application-level operations recorded so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// The shared operation-latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.op_latency
    }

    /// Snapshot of all per-node counters.
    pub fn node_snapshots(&self) -> Vec<NodeSnapshot> {
        self.nodes[..self.num_nodes()]
            .iter()
            .map(NodeStats::snapshot)
            .collect()
    }

    /// Largest client clock published so far, in nanoseconds.
    ///
    /// This is a lifetime high-water mark: it is **not** zeroed by
    /// [`PoolStats::reset`] (resetting it would race concurrent
    /// [`PoolStats::publish_client_clock`] calls and could lose publishes).
    /// Per-interval elapsed time is [`PoolStats::elapsed_client_ns`].
    pub fn max_client_clock_ns(&self) -> u64 {
        self.max_client_clock_ns.load(Ordering::Relaxed)
    }

    /// Simulated time at which the current measurement interval started.
    ///
    /// Client clocks are globally monotonic across measurement phases (new
    /// clients join at the time the previous phase ended), so per-phase
    /// elapsed time is `max_client_clock_ns() - clock_baseline_ns()`.
    pub fn clock_baseline_ns(&self) -> u64 {
        self.clock_baseline_ns.load(Ordering::Relaxed)
    }

    /// Largest client clock published during the current measurement
    /// interval, relative to the interval's start.
    pub fn elapsed_client_ns(&self) -> u64 {
        self.max_client_clock_ns()
            .saturating_sub(self.clock_baseline_ns())
    }

    /// Resets the per-interval counters and the latency histogram.
    ///
    /// The clock baseline advances to the largest clock published so far, so
    /// clients connected after the reset continue from that point in
    /// simulated time instead of starting over at zero.
    ///
    /// # Concurrency
    ///
    /// Safe (but racy) under live clients: the clock high-water mark
    /// (`max_client_clock_ns`) is monotone and never zeroed, and the
    /// baseline only ever advances *to* it with a `fetch_max` — so a
    /// [`PoolStats::publish_client_clock`] racing the reset lands either
    /// before the baseline capture (attributed to the old interval) or
    /// after it (attributed to the new one).  Either way the baseline can
    /// never exceed the high-water mark and `elapsed_client_ns` never
    /// underflows or goes negative-forever.  The traffic counters are
    /// plain relaxed stores; verbs racing the reset may land in either
    /// interval, which only blurs the boundary, not the totals.
    ///
    /// The per-node `resident_bytes` gauges (pool state), the contention
    /// counters (see [`PoolStats::contention`]), the fault / retry /
    /// recovery counters (see [`PoolStats::faults`]) and the observability
    /// self-accounting counters (see [`PoolStats::obs`]: spans recorded /
    /// dropped, recorder wraps, events recorded / dropped, ops sampled /
    /// skipped) deliberately survive — a recorder that wrapped or an event
    /// log that overflowed during warm-up must stay visible to the
    /// measured phase.  The per-phase span-latency histograms (see
    /// [`PoolStats::phase_latency`]) survive too: they are fed from
    /// (sampled) flight-recorder spans and describe the whole run, not a
    /// measurement interval.
    pub fn reset(&self) {
        self.clock_baseline_ns.fetch_max(
            self.max_client_clock_ns.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        for n in &self.nodes {
            n.messages.store(0, Ordering::Relaxed);
            n.reads.store(0, Ordering::Relaxed);
            n.writes.store(0, Ordering::Relaxed);
            n.cas.store(0, Ordering::Relaxed);
            n.faa.store(0, Ordering::Relaxed);
            n.rpcs.store(0, Ordering::Relaxed);
            n.rpc_cpu_ns.store(0, Ordering::Relaxed);
            n.bytes.store(0, Ordering::Relaxed);
            n.doorbells.store(0, Ordering::Relaxed);
        }
        self.ops.store(0, Ordering::Relaxed);
        self.op_latency.reset();
        // `max_client_clock_ns` is deliberately NOT zeroed: a concurrent
        // publish racing the store could be lost, leaving the baseline
        // (captured above) ahead of every later publish and elapsed time
        // permanently stuck at zero.  The mark stays monotone; elapsed time
        // is always measured against the baseline.
        self.doorbells.store(0, Ordering::Relaxed);
        self.batched_verbs.store(0, Ordering::Relaxed);
        self.largest_batch.store(0, Ordering::Relaxed);
        self.largest_fanout.store(0, Ordering::Relaxed);
        self.signalled_wqes.store(0, Ordering::Relaxed);
        self.unsignalled_wqes.store(0, Ordering::Relaxed);
        self.cq_polls.store(0, Ordering::Relaxed);
        // Migration *traffic* counters reset with the interval; the per-node
        // resident byte gauges are pool state and deliberately survive.
        self.migrated_bytes.store(0, Ordering::Relaxed);
        self.migrated_objects.store(0, Ordering::Relaxed);
        self.migrated_object_bytes.store(0, Ordering::Relaxed);
        self.stripe_cutovers.store(0, Ordering::Relaxed);
    }
}

/// The resource that limited a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// Clients could not issue requests any faster (latency bound).
    ClientCompute,
    /// The RNIC message rate of a memory node saturated.
    NicMessageRate,
    /// The controller CPU of a memory node saturated.
    MnCpu,
}

/// Result of a measured run over the DM substrate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Application-level operations completed.
    pub total_ops: u64,
    /// Effective elapsed simulated time in seconds (stretched to the most
    /// saturated resource).
    pub simulated_seconds: f64,
    /// Largest per-client simulated clock in seconds.
    pub client_seconds: f64,
    /// Throughput in million operations per second.
    pub throughput_mops: f64,
    /// Mean operation latency in microseconds.
    pub mean_latency_us: f64,
    /// Median operation latency in microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile operation latency in microseconds.
    pub p99_latency_us: f64,
    /// Average RNIC messages per operation.
    pub messages_per_op: f64,
    /// Total RNIC messages per node.
    pub node_messages: Vec<u64>,
    /// Controller CPU seconds consumed per node.
    pub node_cpu_seconds: Vec<f64>,
    /// Which resource bounded the run.
    pub bottleneck: Bottleneck,
    /// Number of client threads that took part in the run.
    pub clients: usize,
}

impl RunReport {
    /// Builds a report from counter deltas.
    ///
    /// `before`/`after` are node snapshots bracketing the measurement,
    /// `ops` the number of operations completed in between,
    /// `max_client_clock_ns` the largest per-client simulated clock and the
    /// latency percentiles are taken from `latency`.
    pub fn from_measurement(
        config: &DmConfig,
        before: &[NodeSnapshot],
        after: &[NodeSnapshot],
        ops: u64,
        max_client_clock_ns: u64,
        latency: &LatencyHistogram,
        clients: usize,
    ) -> RunReport {
        let deltas: Vec<NodeSnapshot> = after
            .iter()
            .zip(before.iter())
            .map(|(a, b)| a.delta(b))
            .collect();
        let client_seconds = max_client_clock_ns as f64 / 1e9;
        let nic_seconds = deltas
            .iter()
            .map(|d| d.messages as f64 / config.mn_message_rate as f64)
            .fold(0.0_f64, f64::max);
        let cpu_seconds_per_node: Vec<f64> = deltas
            .iter()
            .map(|d| d.rpc_cpu_ns as f64 / 1e9 / config.mn_cpu_cores.max(1) as f64)
            .collect();
        let cpu_seconds = cpu_seconds_per_node.iter().copied().fold(0.0_f64, f64::max);

        let simulated_seconds = client_seconds.max(nic_seconds).max(cpu_seconds).max(1e-12);
        let bottleneck = {
            let mut best = (client_seconds, Bottleneck::ClientCompute);
            if nic_seconds > best.0 {
                best = (nic_seconds, Bottleneck::NicMessageRate);
            }
            if cpu_seconds > best.0 {
                best = (cpu_seconds, Bottleneck::MnCpu);
            }
            best.1
        };

        let total_messages: u64 = deltas.iter().map(|d| d.messages).sum();
        RunReport {
            total_ops: ops,
            simulated_seconds,
            client_seconds,
            throughput_mops: ops as f64 / simulated_seconds / 1e6,
            mean_latency_us: latency.mean_ns() / 1_000.0,
            p50_latency_us: latency.median_ns() as f64 / 1_000.0,
            p99_latency_us: latency.p99_ns() as f64 / 1_000.0,
            messages_per_op: if ops == 0 {
                0.0
            } else {
                total_messages as f64 / ops as f64
            },
            node_messages: deltas.iter().map(|d| d.messages).collect(),
            node_cpu_seconds: deltas.iter().map(|d| d.rpc_cpu_ns as f64 / 1e9).collect(),
            bottleneck,
            clients,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(messages: u64, cpu_ns: u64) -> NodeSnapshot {
        NodeSnapshot {
            messages,
            rpc_cpu_ns: cpu_ns,
            ..NodeSnapshot::default()
        }
    }

    #[test]
    fn record_and_snapshot() {
        let stats = PoolStats::new(2);
        stats.record_verb(0, VerbKind::Read, 64);
        stats.record_verb(0, VerbKind::Cas, 8);
        stats.record_verb(1, VerbKind::Rpc, 128);
        stats.record_rpc_cpu(1, 700);
        let snaps = stats.node_snapshots();
        assert_eq!(snaps[0].messages, 2);
        assert_eq!(snaps[0].reads, 1);
        assert_eq!(snaps[0].cas, 1);
        assert_eq!(snaps[1].rpcs, 1);
        assert_eq!(snaps[1].rpc_cpu_ns, 700);
        assert_eq!(snaps[0].bytes, 72);
    }

    #[test]
    fn record_verb_out_of_range_is_ignored() {
        let stats = PoolStats::new(1);
        stats.record_verb(9, VerbKind::Read, 64);
        assert_eq!(stats.node_snapshots()[0].messages, 0);
    }

    #[test]
    fn reset_clears_counters() {
        let stats = PoolStats::new(1);
        stats.record_verb(0, VerbKind::Write, 64);
        stats.record_op(1_000);
        stats.publish_client_clock(5_000);
        stats.reset();
        assert_eq!(stats.ops(), 0);
        assert_eq!(stats.node_snapshots()[0].messages, 0);
        // The clock mark is monotone (never zeroed); the interval baseline
        // catches up to it instead, so elapsed time restarts at zero.
        assert_eq!(stats.max_client_clock_ns(), 5_000);
        assert_eq!(stats.clock_baseline_ns(), 5_000);
        assert_eq!(stats.elapsed_client_ns(), 0);
    }

    #[test]
    fn contention_counters_survive_reset() {
        let stats = PoolStats::new(1);
        stats.record_cas_retry(200);
        stats.record_cas_retry(200);
        stats.record_lock_acquisition(3, 5_000);
        stats.record_lock_acquisition(0, 0);
        let before = stats.contention();
        assert_eq!(before.cas_retries, 2);
        assert_eq!(before.lock_acquire_attempts, 5);
        assert_eq!(before.lock_acquisitions, 2);
        assert_eq!(before.lock_wait_retries, 3);
        assert_eq!(before.backoff_ns, 5_400);
        stats.reset();
        assert_eq!(
            stats.contention(),
            before,
            "contention counters are lifetime"
        );
        stats.record_cas_retry(100);
        let delta = stats.contention().delta(&before);
        assert_eq!(delta.cas_retries, 1);
        assert_eq!(delta.backoff_ns, 100);
        assert_eq!(delta.lock_acquisitions, 0);
    }

    #[test]
    fn fault_counters_survive_reset_and_attribute_per_node() {
        let stats = PoolStats::new(2);
        stats.record_verb_failure(0);
        stats.record_verb_failure(1);
        stats.record_verb_timeout(1);
        stats.record_verb_retry(400);
        stats.record_lock_steal();
        stats.record_fenced_release();
        stats.record_lock_exhaustion(4, 900);
        stats.record_locks_reclaimed(3);
        stats.record_recovered_object(128);
        let before = stats.faults();
        assert_eq!(before.verb_failures, 2);
        assert_eq!(before.verb_timeouts, 1);
        assert_eq!(before.faulted_verbs(), 3);
        assert_eq!(before.verb_retries, 1);
        assert_eq!(before.retry_backoff_ns, 400);
        assert_eq!(before.lock_steals, 1);
        assert_eq!(before.fenced_releases, 1);
        assert_eq!(before.lock_exhaustions, 1);
        assert_eq!(before.locks_reclaimed, 3);
        assert_eq!(before.recovered_objects, 1);
        assert_eq!(before.recovered_bytes, 128);
        assert_eq!(stats.verb_faults_on(0), 1);
        assert_eq!(stats.verb_faults_on(1), 2);
        assert_eq!(stats.verb_faults_on(9), 0);
        stats.reset();
        assert_eq!(stats.faults(), before, "fault counters are lifetime");
        assert_eq!(
            stats.verb_faults_on(1),
            2,
            "per-node attribution survives reset"
        );
        stats.record_verb_timeout(0);
        let delta = stats.faults().delta(&before);
        assert_eq!(delta.verb_timeouts, 1);
        assert_eq!(delta.verb_failures, 0);
    }

    #[test]
    fn obs_counters_document_and_honor_reset_survival() {
        // Audit: every observability self-accounting counter is lifetime —
        // it must survive reset() exactly like the contention and fault
        // groups.  Exercised field by field so a new ObsSnapshot member
        // cannot be added without extending this test (struct update syntax
        // is deliberately avoided below).
        let stats = PoolStats::new(1);
        stats.record_span(false, false);
        stats.record_span(true, false);
        stats.record_span(true, true);
        stats.record_event_logged(false);
        stats.record_event_logged(true);
        stats.record_op_sampled(true);
        stats.record_op_sampled(false);
        stats.record_op_sampled(false);
        let before = stats.obs();
        let expected = ObsSnapshot {
            spans_recorded: 3,
            spans_dropped: 2,
            recorder_wraps: 1,
            events_recorded: 2,
            events_dropped: 1,
            ops_sampled: 1,
            ops_skipped: 2,
        };
        assert_eq!(before, expected);
        stats.reset();
        assert_eq!(stats.obs(), before, "obs counters are lifetime");
        stats.record_span(false, false);
        stats.record_event_logged(false);
        stats.record_op_sampled(true);
        let delta = stats.obs().delta(&before);
        assert_eq!(
            delta,
            ObsSnapshot {
                spans_recorded: 1,
                spans_dropped: 0,
                recorder_wraps: 0,
                events_recorded: 1,
                events_dropped: 0,
                ops_sampled: 1,
                ops_skipped: 0,
            }
        );
    }

    #[test]
    fn phase_latency_histograms_survive_reset() {
        let stats = PoolStats::new(1);
        let local: Vec<LatencyHistogram> =
            (0..Phase::COUNT).map(|_| LatencyHistogram::new()).collect();
        local[Phase::Flight.index()].record(1_500);
        local[Phase::Flight.index()].record(2_500);
        local[Phase::Poll.index()].record(300);
        stats.merge_phase_latency(&local);
        assert_eq!(stats.phase_latency(Phase::Flight).count(), 2);
        assert_eq!(stats.phase_latency(Phase::Flight).sum_ns(), 4_000);
        assert_eq!(stats.phase_latency(Phase::Poll).count(), 1);
        assert_eq!(stats.phase_latency(Phase::Translate).count(), 0);
        stats.reset();
        assert_eq!(
            stats.phase_latency(Phase::Flight).count(),
            2,
            "phase histograms are lifetime state"
        );
        // A second client merging after the reset accumulates on top.
        stats.merge_phase_latency(&local);
        assert_eq!(stats.phase_latency(Phase::Flight).count(), 4);
        assert_eq!(stats.phase_latency(Phase::Flight).sum_ns(), 8_000);
    }

    #[test]
    fn publish_racing_reset_never_strands_the_baseline() {
        // A client publishing concurrently with reset() must end up either
        // in the old interval (folded into the baseline) or the new one
        // (visible as elapsed time) — never lost with the baseline ahead of
        // every later publish.
        use std::sync::Arc;
        for round in 0..200u64 {
            let stats = Arc::new(PoolStats::new(1));
            stats.publish_client_clock(1_000);
            let publisher = {
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    stats.publish_client_clock(2_000 + round);
                })
            };
            stats.reset();
            publisher.join().unwrap();
            let max = stats.max_client_clock_ns();
            let baseline = stats.clock_baseline_ns();
            assert!(max >= 2_000 + round, "publish lost: {max}");
            assert!(
                baseline <= max,
                "baseline {baseline} ahead of publishes {max}"
            );
            // Whatever the interleaving, a later publish still moves time.
            stats.publish_client_clock(10_000);
            assert_eq!(stats.elapsed_client_ns(), 10_000 - baseline);
        }
    }

    #[test]
    fn client_bound_report() {
        // Few messages, long client time: client compute is the bottleneck.
        let config = DmConfig::default();
        let before = vec![snap(0, 0)];
        let after = vec![snap(1_000, 0)];
        let lat = LatencyHistogram::new();
        lat.record(10_000);
        let r =
            RunReport::from_measurement(&config, &before, &after, 1_000, 2_000_000_000, &lat, 4);
        assert_eq!(r.bottleneck, Bottleneck::ClientCompute);
        assert!((r.simulated_seconds - 2.0).abs() < 1e-9);
        assert!((r.messages_per_op - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nic_bound_report() {
        // Many messages in a short client time: the RNIC message rate limits.
        let config = DmConfig::default().with_message_rate(1_000_000);
        let before = vec![snap(0, 0)];
        let after = vec![snap(10_000_000, 0)];
        let lat = LatencyHistogram::new();
        let r = RunReport::from_measurement(
            &config,
            &before,
            &after,
            5_000_000,
            1_000_000_000,
            &lat,
            64,
        );
        assert_eq!(r.bottleneck, Bottleneck::NicMessageRate);
        // 10 M messages at 1 M msg/s = 10 s.
        assert!((r.simulated_seconds - 10.0).abs() < 1e-6);
        assert!((r.throughput_mops - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cpu_bound_report() {
        // Heavy RPC CPU usage on a single weak core dominates.
        let config = DmConfig::default();
        let before = vec![snap(0, 0)];
        let after = vec![snap(100, 5_000_000_000)];
        let lat = LatencyHistogram::new();
        let r = RunReport::from_measurement(&config, &before, &after, 100, 1_000_000, &lat, 1);
        assert_eq!(r.bottleneck, Bottleneck::MnCpu);
        assert!((r.simulated_seconds - 5.0).abs() < 1e-6);
    }

    #[test]
    fn more_mn_cores_relieve_cpu_bottleneck() {
        let before = vec![snap(0, 0)];
        let after = vec![snap(100, 5_000_000_000)];
        let lat = LatencyHistogram::new();
        let weak = RunReport::from_measurement(
            &DmConfig::default().with_mn_cores(1),
            &before,
            &after,
            100,
            1_000_000,
            &lat,
            1,
        );
        let strong = RunReport::from_measurement(
            &DmConfig::default().with_mn_cores(10),
            &before,
            &after,
            100,
            1_000_000,
            &lat,
            1,
        );
        assert!(strong.throughput_mops > weak.throughput_mops * 5.0);
    }

    #[test]
    fn snapshot_delta_saturates() {
        let a = snap(10, 5);
        let b = snap(3, 9);
        let d = a.delta(&b);
        assert_eq!(d.messages, 7);
        assert_eq!(d.rpc_cpu_ns, 0);
    }
}
