//! Resource accounting for the simulated DM fabric.
//!
//! Throughput on disaggregated memory is bounded by one of three resources:
//! the compute available to clients (their simulated clocks), the RNIC
//! message rate of a memory node, or the controller CPU of a memory node.
//! [`PoolStats`] tracks all three; [`RunReport`] turns a measurement interval
//! into throughput / latency numbers by stretching the elapsed time to the
//! most-saturated resource, which is the mechanism behind every throughput
//! figure in the paper's evaluation.
//!
//! # Counters
//!
//! Every counter is **one row** of a [`counter_table!`](crate::counter_table)
//! — doc comment, field, `lifetime | interval`, `counter | gauge`, series
//! name and help — and the row is all there is to write: the table expands to
//! the atomic struct, a plain accessor per row, the snapshot struct with its
//! saturating `delta`, `reset` and the row's lines on the text exposition
//! page ([`crate::obs::text_exposition`], rendered by
//! [`crate::obs::write_rows`]).
//!
//! * An **`interval`** row is zeroed by [`PoolStats::reset`]: traffic of the
//!   measurement interval (per-node verbs, posted rounds, migration copies).
//! * A **`lifetime`** row is not: contention, faults and the observability
//!   layer's own accounting are evidence — a CAS lost, a recorder that
//!   wrapped during warm-up — and must stay visible to the measured phase.
//!   Per-interval figures of a lifetime group come from diffing two
//!   snapshots with the snapshot's `delta`.
//! * A row marked **`accessor`** is read through its accessor only and is
//!   not a field of the snapshot struct (`ditto-core`'s `CacheStatsSnapshot`
//!   is built field by field by its users, so it cannot grow).
//! * `bump record_x` / `add record_x` after the help text also generates the
//!   recorder: `record_x()` adds one, `record_x(n)` adds `n`.  A recorder
//!   that touches more than one row is written by hand over the generated
//!   fields.
//!
//! Which rows survive a reset is therefore read off the tables below, not
//! off prose.

use crate::config::DmConfig;
use crate::histogram::LatencyHistogram;
use crate::obs::{self, Phase};
use crate::topology::MAX_POOL_NODES;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One row of a [`counter_table!`](crate::counter_table), as the exposition
/// writer and the reset-policy tests see it.
#[derive(Debug)]
pub struct CounterRow {
    /// The field (and accessor) name.
    pub field: &'static str,
    /// Whether `reset` zeroes the row (`interval`) or leaves it (`lifetime`).
    pub interval: bool,
    /// Series name on the exposition page.
    pub name: &'static str,
    /// The series' `# HELP` text.
    pub help: &'static str,
    /// The series' `# TYPE`: `counter` or `gauge`.
    pub kind: &'static str,
}

/// Declares one group of counters; see the [module docs](crate::stats).
///
/// ```text
/// counter_table! {
///     /// Docs of the atomic struct.
///     pub struct Stats;
///     /// Docs (and derives) of the snapshot struct.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Snapshot;
///     read through Owner [field];   // or `Stats []`: accessors on the struct itself
///
///     /// Docs of the row.
///     row: interval, counter "series_total" "Help.", bump record_row;
///     /// A row that is no snapshot field.
///     other: lifetime accessor, gauge "series" "Help.";
///
///     + per index {                 // optional: `Vec` rows, snapshot and reset only
///         /// Docs.
///         votes: interval;
///     }
/// }
/// ```
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$smeta:meta])* $svis:vis struct $Stats:ident;
        $(#[$nmeta:meta])* $nvis:vis struct $Snapshot:ident;
        read through $Owner:ident $path:tt;
        $(
            $(#[$doc:meta])*
            $field:ident: $life:ident $($only:ident)?, $kind:ident $name:literal $help:literal
                $(, $how:ident $rec:ident)?;
        )*
        $(+ per index { $( $(#[$idoc:meta])* $ifield:ident: $ilife:ident; )* })?
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Default)]
        $svis struct $Stats {
            $( $(#[$doc])* $field: ::std::sync::atomic::AtomicU64, )*
            $($( $(#[$idoc])* $ifield: Vec<::std::sync::atomic::AtomicU64>, )*)?
        }

        impl $Stats {
            /// The table: one entry per row, in declaration order.
            pub const ROWS: &'static [$crate::stats::CounterRow] = &[$(
                $crate::stats::CounterRow {
                    field: stringify!($field),
                    interval: $crate::counter_table!(@interval $life),
                    name: $name,
                    help: $help,
                    kind: stringify!($kind),
                },
            )*];

            /// Every row's current value, in [`Self::ROWS`] order.
            pub fn values(&self) -> Vec<u64> {
                vec![$( self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*]
            }

            /// Zeroes the `interval` rows; `lifetime` rows keep counting.
            pub fn reset(&self) {
                $( if $crate::counter_table!(@interval $life) {
                    self.$field.store(0, ::std::sync::atomic::Ordering::Relaxed);
                } )*
                $($( if $crate::counter_table!(@interval $ilife) {
                    for cell in &self.$ifield {
                        cell.store(0, ::std::sync::atomic::Ordering::Relaxed);
                    }
                } )*)?
            }

            /// Appends every row's series to a text exposition page.
            pub fn write_exposition(&self, out: &mut String) {
                $crate::obs::write_rows(out, Self::ROWS, &self.values());
            }
        }

        impl $Owner {
            $(
                $(#[$doc])*
                pub fn $field(&self) -> u64 {
                    $crate::counter_table!(@cell self $path $field)
                        .load(::std::sync::atomic::Ordering::Relaxed)
                }
                $( $crate::counter_table!(@recorder $how $rec self $path $field); )?
            )*
        }

        $crate::counter_table!(@snapshot
            [$(#[$nmeta])* $nvis struct $Snapshot of $Stats; $($( $(#[$idoc])* $ifield )*)?]
            []
            $( { $(#[$doc])* $field $($only)? } )*
        );
    };

    (@interval interval) => { true };
    (@interval lifetime) => { false };

    (@cell $s:ident [] $field:ident) => { $s.$field };
    (@cell $s:ident [$via:ident] $field:ident) => { $s.$via.$field };

    (@recorder bump $rec:ident $s:ident $path:tt $field:ident) => {
        #[doc = concat!("Adds one to [`Self::", stringify!($field), "`].")]
        pub fn $rec(&$s) {
            $crate::counter_table!(@cell $s $path $field)
                .fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
        }
    };
    (@recorder add $rec:ident $s:ident $path:tt $field:ident) => {
        #[doc = concat!("Adds `n` to [`Self::", stringify!($field), "`].")]
        pub fn $rec(&$s, n: u64) {
            $crate::counter_table!(@cell $s $path $field)
                .fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
        }
    };

    // The snapshot struct holds the rows not marked `accessor`: walk the
    // rows, keep those, then emit.
    (@snapshot $hdr:tt [$($kept:tt)*] { $(#[$doc:meta])* $field:ident accessor } $($rest:tt)*) => {
        $crate::counter_table!(@snapshot $hdr [$($kept)*] $($rest)*);
    };
    (@snapshot $hdr:tt [$($kept:tt)*] { $(#[$doc:meta])* $field:ident } $($rest:tt)*) => {
        $crate::counter_table!(@snapshot $hdr [$($kept)* { $(#[$doc])* $field }] $($rest)*);
    };
    (@snapshot
        [$(#[$nmeta:meta])* $nvis:vis struct $Snapshot:ident of $Stats:ident;
            $( $(#[$idoc:meta])* $ifield:ident )*]
        [$( { $(#[$doc:meta])* $field:ident } )*]
    ) => {
        $(#[$nmeta])*
        $nvis struct $Snapshot {
            $( $(#[$doc])* pub $field: u64, )*
            $( $(#[$idoc])* pub $ifield: Vec<u64>, )*
        }

        impl $Snapshot {
            /// Element-wise difference (`self - earlier`), saturating at zero.
            pub fn delta(&self, earlier: &$Snapshot) -> $Snapshot {
                $Snapshot {
                    $( $field: self.$field.saturating_sub(earlier.$field), )*
                    $( $ifield: self.$ifield.iter().zip(&earlier.$ifield)
                        .map(|(now, then)| now.saturating_sub(*then))
                        .collect(), )*
                }
            }
        }

        impl $Stats {
            /// Point-in-time copy of the rows the snapshot struct holds.
            pub fn snapshot(&self) -> $Snapshot {
                $Snapshot {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                    $( $ifield: self.$ifield.iter()
                        .map(|cell| cell.load(::std::sync::atomic::Ordering::Relaxed))
                        .collect(), )*
                }
            }
        }
    };
}

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

counter_table! {
    /// Per-memory-node counters; every series carries a `node` label.
    pub struct NodeStats;
    /// Point-in-time copy of one node's counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct NodeSnapshot;
    read through NodeStats [];

    /// Total RNIC messages (all verbs, including RPC requests).
    messages: interval, counter "ditto_node_messages_total" "RNIC messages per memory node.";
    /// READ verbs.
    reads: interval, counter "ditto_node_reads_total" "READ verbs per memory node.";
    /// WRITE verbs.
    writes: interval, counter "ditto_node_writes_total" "WRITE verbs per memory node.";
    /// CAS verbs.
    cas: interval, counter "ditto_node_cas_total" "CAS verbs per memory node.";
    /// FAA verbs.
    faa: interval, counter "ditto_node_faa_total" "FAA verbs per memory node.";
    /// RPC requests.
    rpcs: interval, counter "ditto_node_rpcs_total" "RPC requests per memory node.";
    /// Controller CPU time consumed by RPC handlers, in nanoseconds.
    rpc_cpu_ns: interval, counter "ditto_node_rpc_cpu_simulated_nanoseconds_total" "Controller CPU spent in RPC handlers per memory node, in simulated nanoseconds.";
    /// Bytes moved to/from this node.
    bytes: interval, counter "ditto_node_bytes_total" "Payload bytes moved to or from each memory node.";
    /// Doorbells rung at this node's RNIC: one per posted round
    /// ([`crate::WorkQueue::ring`]) that includes at least one WQE for this
    /// node.  A synchronous single-verb call is not included.
    doorbells: interval, counter "ditto_node_doorbells_total" "Doorbells rung at each memory node's RNIC by posted rounds.";
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
}

counter_table! {
    /// Operations completed and the posted rounds ([`crate::WorkQueue::ring`])
    /// that carried them.
    pub struct TrafficStats;
    /// Point-in-time copy of the operation and posted-round counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct TrafficSnapshot;
    read through PoolStats [traffic];

    /// Application-level operations recorded so far.
    ops: interval, counter "ditto_ops_total" "Application-level operations completed.";
    /// Doorbells rung by *posted rounds* so far: each
    /// [`crate::WorkQueue::ring`] adds one per distinct node it posts to.  A
    /// synchronous single-verb call (`try_read_into`, `try_cas`, `try_faa`,
    /// …) is one completed round trip and is **not** included — which is why
    /// moving a verb from such a call onto the ring raises this counter
    /// while it removes a round trip.
    doorbells: interval, counter "ditto_doorbells_total" "Doorbells rung by posted rounds, one per node a round posts to (a synchronous single-verb call is not included).";
    /// WQEs handed to the NIC by posted rounds (see [`PoolStats::doorbells`]);
    /// verbs issued through synchronous single-verb calls are not included.
    /// A WQE *flushed* behind an errored one (the flush rule of
    /// [`crate::wqe`]) was posted, so it counts here and in
    /// [`PoolStats::signalled_wqes`]/[`PoolStats::unsignalled_wqes`] — but it never
    /// left the NIC: no node counts a message for it, and it is no fault in
    /// [`FaultSnapshot`].
    batched_verbs: interval, counter "ditto_batched_verbs_total" "WQEs handed to the NIC by posted rounds (synchronous single-verb calls are not included).";
    /// Most WQEs one posted round carried (see [`PoolStats::doorbells`]).
    largest_batch: interval, gauge "ditto_largest_batch" "Most WQEs one posted round carried.";
    /// Largest per-round memory-node fan-out observed.
    largest_fanout: interval, gauge "ditto_largest_fanout" "Most memory nodes one posted round fanned out to.";
    /// WQEs posted *signalled* (their completion is polled from the CQ).
    signalled_wqes: interval, counter "ditto_signalled_wqes_total" "WQEs posted signalled.";
    /// WQEs posted *unsignalled* (fire-and-forget; never waited for).
    unsignalled_wqes: interval, counter "ditto_unsignalled_wqes_total" "WQEs posted unsignalled.";
    /// Successful completion-queue polls.
    cq_polls: interval, counter "ditto_cq_polls_total" "Successful completion-queue polls.", bump record_cq_poll;
}

counter_table! {
    /// Live-resize copy traffic.  (The per-node resident-byte gauges are pool
    /// *state* and live outside the table: no reset touches them.)
    pub struct MigrationStats;
    /// Point-in-time copy of the live-resize traffic counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct MigrationSnapshot;
    read through PoolStats [migration];

    /// Bucket-array bytes copied between nodes by stripe migrations.
    migrated_bytes: interval, counter "ditto_migrated_bytes_total" "Bucket-array bytes copied by stripe migrations.", add record_migrated_bytes;
    /// Objects relocated between nodes by the migration pump.
    migrated_objects: interval, counter "ditto_migrated_objects_total" "Objects relocated between memory nodes.";
    /// Object bytes relocated between nodes.
    migrated_object_bytes: interval, counter "ditto_migrated_object_bytes_total" "Object bytes relocated between memory nodes.";
    /// Stripe cutovers committed (source → destination switches).
    stripe_cutovers: interval, counter "ditto_stripe_cutovers_total" "Stripe cutovers committed.", bump record_stripe_cutover;
}

counter_table! {
    /// How often concurrent clients got in each other's way.
    pub struct ContentionStats;
    /// Point-in-time copy of the pool's contention counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ContentionSnapshot;
    read through PoolStats [contention];

    /// Slot-CAS attempts that observed an unexpected value and forced the
    /// issuing operation to retry.
    cas_retries: lifetime, counter "ditto_cas_retries_total" "Failed slot-CAS attempts that forced a retry (lifetime).";
    /// Simulated nanoseconds clients spent backing off after failed slot
    /// CASes.
    backoff_ns: lifetime, counter "ditto_backoff_simulated_nanoseconds_total" "Simulated nanoseconds spent in slot-CAS back-off (lifetime).";
}

counter_table! {
    /// Faults weathered, retries paid and what crash recovery swept up.
    pub struct FaultStats;
    /// Point-in-time copy of the pool's fault / retry / recovery counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct FaultSnapshot;
    read through PoolStats [faults];

    /// Verbs that completed in error (injected faults and typed
    /// node-removed rejections).  WQEs flushed behind an errored one (see
    /// [`crate::wqe`]) are not faults and are not counted.
    verb_failures: lifetime, counter "ditto_verb_failures_total" "Verbs that completed in error (lifetime).";
    /// Verbs that timed out.
    verb_timeouts: lifetime, counter "ditto_verb_timeouts_total" "Verbs that timed out (lifetime).";
    /// Higher-layer retries of faulted verbs.
    verb_retries: lifetime, counter "ditto_verb_retries_total" "Higher-layer retries of faulted verbs (lifetime).";
    /// Simulated nanoseconds spent backing off between verb retries.
    retry_backoff_ns: lifetime, counter "ditto_retry_backoff_simulated_nanoseconds_total" "Simulated nanoseconds spent backing off between verb retries (lifetime).";
    /// Orphaned objects swept by a crash-recovery pass.
    recovered_objects: lifetime, counter "ditto_recovered_objects_total" "Orphaned objects swept by crash recovery (lifetime).";
    /// Orphaned object bytes swept by a crash-recovery pass.
    recovered_bytes: lifetime, counter "ditto_recovered_bytes_total" "Orphaned object bytes swept by crash recovery (lifetime).";
}

counter_table! {
    /// The observability layer's own accounting.
    pub struct ObsStats;
    /// Point-in-time copy of the observability self-accounting counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ObsSnapshot;
    read through PoolStats [obs];

    /// Flight-recorder spans recorded pool-wide.
    spans_recorded: lifetime, counter "ditto_obs_spans_recorded_total" "Flight-recorder spans recorded (lifetime).";
    /// Flight-recorder spans lost to ring overwrites.
    spans_dropped: lifetime, counter "ditto_obs_spans_dropped_total" "Flight-recorder spans lost to ring overwrites (lifetime).";
    /// Flight-recorder ring wrap-arounds (a drop landing on slot 0).
    recorder_wraps: lifetime, counter "ditto_obs_recorder_wraps_total" "Flight-recorder ring wrap-arounds (lifetime).";
    /// Structured events recorded into the pool event log.
    events_recorded: lifetime, counter "ditto_obs_events_recorded_total" "Structured events recorded (lifetime).";
    /// Structured events lost to ring overwrites.
    events_dropped: lifetime, counter "ditto_obs_events_dropped_total" "Structured events lost to ring overwrites (lifetime).";
    /// Ops whose span sets the armed flight recorder kept (sampling draw
    /// hit; see [`DmConfig::flight_recorder_sample_one_in`]).
    ops_sampled: lifetime, counter "ditto_obs_ops_sampled_total" "Ops whose span sets the armed flight recorder kept (lifetime).";
    /// Ops the armed flight recorder's sampling draw skipped.
    ops_skipped: lifetime, counter "ditto_obs_ops_skipped_total" "Ops the armed flight recorder's sampling draw skipped (lifetime).";
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
    op_latency: LatencyHistogram,
    max_client_clock_ns: AtomicU64,
    clock_baseline_ns: AtomicU64,
    clients_spawned: AtomicU64,
    traffic: TrafficStats,
    migration: MigrationStats,
    contention: ContentionStats,
    faults: FaultStats,
    obs: ObsStats,
    /// Resident *object* bytes per node: allocations minus frees as reported
    /// by the cache layer.  This is pool **state**, not interval traffic, so
    /// [`PoolStats::reset`] leaves it alone; a drained node's entry reaching
    /// zero is the signal that it can be decommissioned.
    resident_bytes: Vec<AtomicU64>,
    /// Faulted verbs (failures plus timeouts) per node.  Lifetime, like the
    /// fault group it attributes.
    verb_faults_per_node: Vec<AtomicU64>,
    /// Per-phase span-latency histograms (indexed by
    /// [`Phase::index`]), merged in from each client's local set when the
    /// client drops.  Lifetime state: the exposition's phase summaries
    /// describe the whole run.
    phase_latency: Vec<LatencyHistogram>,
}

fn per_node<T>(make: impl FnMut() -> T) -> Vec<T> {
    let mut v = Vec::with_capacity(MAX_POOL_NODES);
    v.resize_with(MAX_POOL_NODES, make);
    v
}

impl PoolStats {
    /// Creates accounting for `num_nodes` memory nodes.
    pub fn new(num_nodes: u16) -> Self {
        PoolStats {
            nodes: per_node(NodeStats::default),
            active_nodes: AtomicUsize::new((num_nodes as usize).clamp(1, MAX_POOL_NODES)),
            op_latency: LatencyHistogram::new(),
            max_client_clock_ns: AtomicU64::new(0),
            clock_baseline_ns: AtomicU64::new(0),
            clients_spawned: AtomicU64::new(0),
            traffic: TrafficStats::default(),
            migration: MigrationStats::default(),
            contention: ContentionStats::default(),
            faults: FaultStats::default(),
            obs: ObsStats::default(),
            resident_bytes: per_node(AtomicU64::default),
            verb_faults_per_node: per_node(AtomicU64::default),
            phase_latency: (0..Phase::COUNT).map(|_| LatencyHistogram::new()).collect(),
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
        let t = &self.traffic;
        t.doorbells.fetch_add(fanout as u64, Ordering::Relaxed);
        t.batched_verbs.fetch_add(verbs as u64, Ordering::Relaxed);
        t.largest_batch.fetch_max(verbs as u64, Ordering::Relaxed);
        t.largest_fanout.fetch_max(fanout as u64, Ordering::Relaxed);
    }

    /// Records one doorbell ring at node `mn_id`'s RNIC.
    pub fn record_node_doorbell(&self, mn_id: u16) {
        if let Some(node) = self.nodes.get(mn_id as usize) {
            node.doorbells.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one WQE handed to the NIC, signalled or unsignalled.
    pub fn record_wqe(&self, signalled: bool) {
        let wqes = if signalled {
            &self.traffic.signalled_wqes
        } else {
            &self.traffic.unsignalled_wqes
        };
        wqes.fetch_add(1, Ordering::Relaxed);
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

    /// Snapshot of the operation and posted-round counters.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.traffic.snapshot()
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

    /// Records one object of `bytes` bytes relocated between nodes.
    pub fn record_migrated_object(&self, bytes: u64) {
        let m = &self.migration;
        m.migrated_objects.fetch_add(1, Ordering::Relaxed);
        m.migrated_object_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one failed slot-CAS attempt that forces the issuing
    /// operation to retry, together with the simulated back-off it paid.
    pub fn record_cas_retry(&self, backoff_ns: u64) {
        let c = &self.contention;
        c.cas_retries.fetch_add(1, Ordering::Relaxed);
        c.backoff_ns.fetch_add(backoff_ns, Ordering::Relaxed);
    }

    /// Snapshot of the contention counters.
    pub fn contention(&self) -> ContentionSnapshot {
        self.contention.snapshot()
    }

    fn record_node_fault(&self, mn_id: u16) {
        if let Some(node) = self.verb_faults_per_node.get(mn_id as usize) {
            node.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one verb to `mn_id` completing in error.
    pub fn record_verb_failure(&self, mn_id: u16) {
        self.record_node_fault(mn_id);
        self.faults.verb_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one verb to `mn_id` timing out.
    pub fn record_verb_timeout(&self, mn_id: u16) {
        self.record_node_fault(mn_id);
        self.faults.verb_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one higher-layer retry of a faulted verb and the simulated
    /// back-off paid before it.
    pub fn record_verb_retry(&self, backoff_ns: u64) {
        let f = &self.faults;
        f.verb_retries.fetch_add(1, Ordering::Relaxed);
        f.retry_backoff_ns.fetch_add(backoff_ns, Ordering::Relaxed);
    }

    /// Records one orphaned object of `bytes` bytes swept by recovery.
    pub fn record_recovered_object(&self, bytes: u64) {
        let f = &self.faults;
        f.recovered_objects.fetch_add(1, Ordering::Relaxed);
        f.recovered_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Faulted verbs attributed to node `mn_id` so far (lifetime).
    pub fn verb_faults_on(&self, mn_id: u16) -> u64 {
        self.verb_faults_per_node
            .get(mn_id as usize)
            .map(|n| n.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Snapshot of the fault / retry / recovery counters.
    pub fn faults(&self) -> FaultSnapshot {
        self.faults.snapshot()
    }

    /// Records one flight-recorder span; `dropped` when it overwrote an
    /// older span, `wrapped` when the overwrite started a new lap of the
    /// ring (see [`crate::obs::FlightRecorder::push`]).
    pub fn record_span(&self, dropped: bool, wrapped: bool) {
        let o = &self.obs;
        o.spans_recorded.fetch_add(1, Ordering::Relaxed);
        if dropped {
            o.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
        if wrapped {
            o.recorder_wraps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one structured event landing in the pool event log;
    /// `dropped` when it overwrote an older event.
    pub fn record_event_logged(&self, dropped: bool) {
        self.obs.events_recorded.fetch_add(1, Ordering::Relaxed);
        if dropped {
            self.obs.events_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the sampling decision the armed flight recorder made for
    /// one op (see [`DmConfig::flight_recorder_sample_one_in`]).
    pub fn record_op_sampled(&self, sampled: bool) {
        let ops = if sampled {
            &self.obs.ops_sampled
        } else {
            &self.obs.ops_skipped
        };
        ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the observability self-accounting counters.
    pub fn obs(&self) -> ObsSnapshot {
        self.obs.snapshot()
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
        self.traffic.ops.fetch_add(1, Ordering::Relaxed);
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

    /// Starts a new measurement interval: zeroes every `interval` row (see
    /// the [module docs](crate::stats)) and the operation-latency histogram.
    /// `lifetime` rows, the per-node resident-byte gauges and fault
    /// attribution, and the per-phase span histograms are left alone.
    ///
    /// The clock baseline advances to the largest clock published so far, so
    /// clients connected after the reset continue from that point in
    /// simulated time instead of starting over at zero.
    ///
    /// # Concurrency
    ///
    /// Safe (but racy) under live clients: the clock high-water mark
    /// (`max_client_clock_ns`) is monotone and never zeroed — a concurrent
    /// publish racing a store could be lost, leaving the baseline ahead of
    /// every later publish and elapsed time stuck at zero — and the
    /// baseline only ever advances *to* it with a `fetch_max`, so a
    /// [`PoolStats::publish_client_clock`] racing the reset lands either
    /// before the baseline capture (attributed to the old interval) or
    /// after it (attributed to the new one).  Either way the baseline can
    /// never exceed the high-water mark and `elapsed_client_ns` never
    /// underflows.  The traffic counters are plain relaxed stores; verbs
    /// racing the reset may land in either interval, which only blurs the
    /// boundary, not the totals.
    pub fn reset(&self) {
        self.clock_baseline_ns.fetch_max(
            self.max_client_clock_ns.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.nodes.iter().for_each(NodeStats::reset);
        self.op_latency.reset();
        self.traffic.reset();
        self.migration.reset();
        self.contention.reset();
        self.faults.reset();
        self.obs.reset();
    }

    /// Appends every counter group's series to a text exposition page (the
    /// counter half of [`crate::obs::text_exposition`]).
    pub fn write_exposition(&self, out: &mut String) {
        self.traffic.write_exposition(out);
        let nodes = &self.nodes[..self.num_nodes()];
        let values: Vec<Vec<u64>> = nodes.iter().map(NodeStats::values).collect();
        for (i, row) in NodeStats::ROWS.iter().enumerate() {
            let series = values.iter().map(|node| node[i]);
            obs::write_labelled_series(out, row.name, row.help, row.kind, "node", series);
        }
        obs::write_labelled_series(
            out,
            "ditto_node_resident_bytes",
            "Resident object bytes per memory node (gauge; survives resets).",
            "gauge",
            "node",
            self.resident_bytes().into_iter(),
        );
        obs::write_labelled_series(
            out,
            "ditto_node_verb_faults_total",
            "Faulted verbs attributed per memory node (lifetime).",
            "counter",
            "node",
            (0..nodes.len()).map(|mn| self.verb_faults_on(mn as u16)),
        );
        self.contention.write_exposition(out);
        self.faults.write_exposition(out);
        self.migration.write_exposition(out);
        self.obs.write_exposition(out);
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Number of clients that took part in the run.
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
        stats.record_cas_retry(5_000);
        let before = stats.contention();
        assert_eq!(before.cas_retries, 2);
        assert_eq!(before.backoff_ns, 5_200);
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
    }

    #[test]
    fn fault_counters_survive_reset_and_attribute_per_node() {
        let stats = PoolStats::new(2);
        stats.record_verb_failure(0);
        stats.record_verb_failure(1);
        stats.record_verb_timeout(1);
        stats.record_verb_retry(400);
        stats.record_recovered_object(128);
        let before = stats.faults();
        assert_eq!(before.verb_failures, 2);
        assert_eq!(before.verb_timeouts, 1);
        assert_eq!(before.verb_retries, 1);
        assert_eq!(before.retry_backoff_ns, 400);
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

    /// Every row was bumped, and `reset` zeroed the `interval` rows only.
    fn assert_reset_policy(rows: &[CounterRow], before: &[u64], after: &[u64]) {
        assert_eq!(rows.len(), before.len());
        for ((row, &was), &is) in rows.iter().zip(before).zip(after) {
            assert_ne!(was, 0, "`{}` was never bumped", row.field);
            let expected = if row.interval { 0 } else { was };
            assert_eq!(is, expected, "`{}` after reset", row.field);
        }
    }

    #[test]
    fn every_row_follows_its_reset_policy() {
        // Walks the tables, so a new row cannot be added without a recorder
        // call here: an unbumped row fails the audit.
        let stats = PoolStats::new(2);
        for kind in [
            VerbKind::Read,
            VerbKind::Write,
            VerbKind::Cas,
            VerbKind::Faa,
            VerbKind::Rpc,
        ] {
            stats.record_verb(1, kind, 8);
        }
        stats.record_rpc_cpu(1, 700);
        stats.record_node_doorbell(1);
        stats.record_op(1_000);
        stats.record_batch(3, 2);
        stats.record_batch(1, 1);
        stats.record_wqe(true);
        stats.record_wqe(false);
        stats.record_wqe(false);
        stats.record_cq_poll();
        stats.record_migrated_bytes(4_096);
        stats.record_migrated_object(128);
        stats.record_stripe_cutover();
        stats.record_cas_retry(200);
        stats.record_verb_failure(0);
        stats.record_verb_timeout(1);
        stats.record_verb_retry(400);
        stats.record_recovered_object(128);
        stats.record_span(false, false);
        stats.record_span(true, false);
        stats.record_span(true, true);
        stats.record_event_logged(false);
        stats.record_event_logged(true);
        stats.record_op_sampled(true);
        stats.record_op_sampled(false);
        stats.record_op_sampled(false);

        // What the hand-written recorders made of it.
        let traffic = TrafficSnapshot {
            ops: 1,
            doorbells: 3,
            batched_verbs: 4,
            largest_batch: 3,
            largest_fanout: 2,
            signalled_wqes: 1,
            unsignalled_wqes: 2,
            cq_polls: 1,
        };
        assert_eq!(stats.traffic(), traffic);
        let migration = MigrationSnapshot {
            migrated_bytes: 4_096,
            migrated_objects: 1,
            migrated_object_bytes: 128,
            stripe_cutovers: 1,
        };
        assert_eq!(stats.migration.snapshot(), migration);
        let obs = ObsSnapshot {
            spans_recorded: 3,
            spans_dropped: 2,
            recorder_wraps: 1,
            events_recorded: 2,
            events_dropped: 1,
            ops_sampled: 1,
            ops_skipped: 2,
        };
        assert_eq!(stats.obs(), obs);
        let node = stats.node_snapshots()[1];
        assert_eq!((node.messages, node.bytes, node.rpc_cpu_ns), (5, 40, 700));

        let groups = |s: &PoolStats| {
            [
                (NodeStats::ROWS, s.nodes[1].values()),
                (TrafficStats::ROWS, s.traffic.values()),
                (MigrationStats::ROWS, s.migration.values()),
                (ContentionStats::ROWS, s.contention.values()),
                (FaultStats::ROWS, s.faults.values()),
                (ObsStats::ROWS, s.obs.values()),
            ]
        };
        let before = groups(&stats);
        stats.reset();
        for ((rows, was), (_, is)) in before.iter().zip(groups(&stats)) {
            assert_reset_policy(rows, was, &is);
        }

        // A snapshot's delta against itself is all zeros; against an earlier
        // one it is what was recorded in between.
        assert_eq!(node.delta(&node), NodeSnapshot::default());
        assert_eq!(traffic.delta(&traffic), TrafficSnapshot::default());
        assert_eq!(migration.delta(&migration), MigrationSnapshot::default());
        assert_eq!(obs.delta(&obs), ObsSnapshot::default());
        stats.record_span(false, false);
        stats.record_event_logged(false);
        stats.record_op_sampled(true);
        assert_eq!(
            stats.obs().delta(&obs),
            ObsSnapshot {
                spans_recorded: 1,
                events_recorded: 1,
                ops_sampled: 1,
                ..ObsSnapshot::default()
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
