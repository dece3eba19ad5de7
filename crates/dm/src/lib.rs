//! Disaggregated-memory (DM) substrate for the Ditto reproduction.
//!
//! The paper runs on a CloudLab cluster where compute nodes (CNs) access
//! memory nodes (MNs) through one-sided RDMA verbs.  This crate provides an
//! in-process substitute that preserves the *structural* properties the
//! paper's arguments rest on:
//!
//! * every one-sided verb (`READ`, `WRITE`, `ATOMIC_CAS`, `ATOMIC_FAA`)
//!   executes a real operation against a shared memory arena, so concurrent
//!   clients observe genuine races, CAS failures and lock contention;
//! * every verb advances the issuing client's *simulated clock* by a
//!   fixed round-trip latency and charges the target memory node's
//!   RNIC message budget;
//! * RPCs to the memory-node controller additionally charge the controller's
//!   (deliberately weak) CPU budget; an RPC has one shape at every layer
//!   ([`DmClient::rpc`], [`MemoryNode::dispatch_rpc`], [`RpcHandler`]):
//!   the caller owns the request and the reply buffer, sized for the
//!   service's largest reply (`ALLOC`'s 17 bytes), and a reply that does
//!   not fit fails with [`DmError::RpcFailed`];
//! * experiment harnesses derive throughput and tail latency from these
//!   accounts, so the bottleneck ordering of the paper (RNIC message rate for
//!   Ditto, MN CPU for CliqueMap, lock retries for Shard-LRU) is reproduced
//!   even though the absolute numbers come from a model rather than hardware.
//!
//! # Architecture
//!
//! * [`MemoryPool`] owns one or more [`MemoryNode`]s, the shared
//!   [`PoolStats`] accounting and the [`topology::PoolTopology`] that maps
//!   stripes (hash-table bucket ranges, history shards, allocation homes)
//!   onto the *active* nodes.  [`MemoryPool::add_node`] and
//!   [`MemoryPool::drain_node`] resize the pool online; every change bumps
//!   a resize epoch that clients validate their cached placement against.
//! * [`migration`] carries a resize out on the *existing* data: a
//!   per-stripe state machine (`Idle → Moving → Committed`, one
//!   reconcile pass per stripe) moves bucket ranges onto the nodes their
//!   directory assigns after the resize — the fewest moves that keep every
//!   node within one stripe of the others — while clients keep serving,
//!   cutovers piggyback on the
//!   resize epoch, and a
//!   drained node empties until [`MemoryPool::remove_node`] can
//!   decommission it.
//! * [`DmClient`] is a per-thread connection handle exposing the verb API,
//!   a per-client simulated clock and a per-client [`cq::CompletionQueue`].
//!   A verb is issued one way, synchronous or posted: one `DmClient`
//!   routine checks the queue pair (a node this client never reached
//!   completes [`CompletionStatus::NodeRemoved`]), draws the injected
//!   fault, prices the transfer, counts the message, executes the verb
//!   against the arena and returns the transfer time with a
//!   [`CompletionStatus`].  A synchronous call waits that time out and
//!   records it as one [`Phase::Flight`] span; a ring makes it a
//!   completion time (see [`client`]).
//! * [`wqe::WorkQueue`] is the posted-work data path: clients post
//!   work-queue entries (signalled or *unsignalled*), ring one doorbell per
//!   distinct memory node, overlap CPU work with the in-flight transfers
//!   and then [`DmClient::poll_cq`] the completions — latency is charged as
//!   *time since post* (see the latency model below).
//! * [`alloc`] is the one allocator: the two-level memory management
//!   scheme used by FUSEE and adopted by Ditto (segment `ALLOC`/`FREE` RPCs
//!   to the node controller, 64-byte blocks carved and recycled on the
//!   client), with one coalescing free-range store serving both levels.
//!   A client's [`alloc::StripedAllocator`] keeps a segment and parked
//!   blocks per memory node, prefers the stripe-local node, so an object's
//!   hash-table slot and its value land on the same node when possible,
//!   and books every grant and free in the resident gauge.
//! * [`harness`] steps `N` clients round-robin on the calling thread, one
//!   request each per round, and collects a [`stats::RunReport`]; a run
//!   repeats exactly.
//!
//! # The posted-WQE latency model
//!
//! A real RNIC lets a client post several work-queue entries, ring the
//! doorbell once and poll a completion queue later; the posted verbs travel
//! and execute concurrently while the client does useful CPU work.  The
//! simulator splits the cost of a posting round of `n` verbs accordingly:
//!
//! ```text
//! ring:     fanout × DOORBELL_LATENCY_NS + n × VERB_ISSUE_NS   (charged now)
//! WQE i:    completes at ring-end + per-node prefix-max(transfer latency)
//! poll_cq:  max(0, completion − now) + CQ_POLL_NS              (charged then)
//! ```
//!
//! (The three costs are [`DmConfig`] constants; the per-verb transfer
//! latency is [`DmConfig::verb_latency_ns`], the usual `base + payload ×
//! PER_KIB_LATENCY_NS`, and WQEs on one node
//! complete in posting order — one queue pair per node.)  Unsignalled WQEs
//! produce no completion and are never waited for.  Draining every
//! completion right after the ring charges `fanout × doorbell + n × issue +
//! max(transfer)` ([`DmConfig::fanout_batch_latency_ns`]) plus the polls;
//! CPU work done between ring and poll is subtracted from the wait, which
//! is what the cache hot paths exploit.  Either way every verb still
//! consumes one message of the target node's RNIC budget — posting buys
//! *latency*, not message rate, which is why the NIC-bound throughput
//! ceiling of §5.3 is unaffected.
//!
//! A single-verb call ([`DmClient::try_read_into`], [`DmClient::try_cas`],
//! [`DmClient::try_faa`], …) is one completed round trip, charged in full
//! where it is issued and recorded as one flight span; it rings no doorbell
//! in the accounting ([`PoolStats::doorbells`] counts posted rounds only).
//!
//! Nor does it pay a doorbell's or a WQE's posting time: only a rung
//! [`wqe::WorkQueue`] charges `fanout × DOORBELL_LATENCY_NS + n ×
//! VERB_ISSUE_NS` (150 + 50 ns for one verb on one node).  A synchronous
//! verb charges its round trip alone, and [`DmClient::try_write_async`] —
//! an unsignalled WRITE nobody waits for — charges nothing on the client
//! clock.  So a cache's asynchronous `last_ts` WRITE is free in time, while
//! the same WRITE, or an FC `FAA`, posted on a ring of its own costs
//! 200 ns.  This is a known gap of the model, not a property of RDMA: a real
//! client pays the MMIO and the WQE build for every verb.
//!
//! What the overlap hides is reported by
//! [`AttributionTable::overlap_saved_ns`] over an armed run's spans;
//! `tests/data_path_golden.rs` checks it is positive on a YCSB-C replay.
//!
//! Posting does not lift the NIC-bound ceiling, striping does: the hottest
//! NIC's message count drops to roughly `1/n`-th of the total on `n` memory
//! nodes.  At 60 k msg/s per NIC, a 10 k-request YCSB-C window (2 k
//! records, capacity 1.4 k objects, one client) serves
//! **19.8 k → 39.1 k → 70.3 k → 97.1 k requests per simulated second on
//! 1 → 2 → 4 → 8 memory nodes**, a rise `tests/elasticity.rs` asserts;
//! `figures fig17` sweeps the same axis at figure scale.
//!
//! # Threading model
//!
//! The substrate is safe for **N real OS threads hammering one shared
//! pool**, mirroring the paper's many-CN deployment (the concurrency and
//! chaos tests drive it that way; measured runs step every client on one
//! thread through [`run_clients`], so simulated time, not the OS
//! scheduler, decides who waits):
//!
//! * [`MemoryPool`], [`MemoryNode`], [`PoolStats`], [`MigrationEngine`] and
//!   [`migration::StripeDirectory`] are `Send + Sync` — share them freely
//!   (`MemoryPool` is a cheap `Arc` clone).  Arena words are atomics, so
//!   concurrent verbs from different threads observe genuine CAS failures
//!   and torn-free word updates.
//! * [`DmClient`] is **`Send` but not `Sync`**: it models one queue pair —
//!   a per-thread connection with its own simulated clock, node cache and
//!   [`cq::CompletionQueue`].  Create one per thread via
//!   [`MemoryPool::connect`]; never share one behind a reference from two
//!   threads.
//! * **Exact vs. racy counters.**  All [`PoolStats`] counters are atomics
//!   and individually exact (nothing is lost), including the contention
//!   group ([`PoolStats::contention`]: CAS retries and back-off time),
//!   which survives [`PoolStats::reset`].  *Cross-counter* consistency is
//!   racy: a snapshot taken while clients run may see verb A but not its
//!   sibling B.  [`PoolStats::reset`] under live clients is safe but attributes
//!   in-flight verbs to either interval; the clock high-water mark is
//!   monotone and never zeroed, so a reset racing
//!   [`PoolStats::publish_client_clock`] can never strand the interval
//!   baseline ahead of later publishes.
//!
//! # Failure model
//!
//! Faults are injected *deterministically* at the verb/WQE layer by a
//! seeded [`FaultPlan`] hung off [`DmConfig::with_fault_plan`] and armed
//! through the pool's [`FaultInjector`].  Three classes exist:
//!
//! * **Verb error completions and timeouts** — per-verb draws (a
//!   `splitmix64` over `seed ⊕ client-id ⊕ sequence`, so a plan replays
//!   identically for a given client set) fail a verb with
//!   [`DmError::VerbFailed`] or charge a timeout and fail it with
//!   [`DmError::VerbTimeout`].  Completions carry a [`CompletionStatus`];
//!   `poll_cq` and `drain_cq` surface errors instead of assuming
//!   success.  On the posted path an errored WQE — a fault, or
//!   [`CompletionStatus::NodeRemoved`] — *flushes* the WQEs queued behind
//!   it on its node's queue pair in the same ring
//!   ([`CompletionStatus::Flushed`], see [`wqe`]): they never execute and
//!   are not faults of their own.
//! * **Node fail-stop** — after a configured simulated instant every verb
//!   to that node errors with [`DmError::VerbFailed`] (the
//!   [`DmClient::node_failed`] oracle tells a dead node from a transient
//!   fault).  One rule retries transient faults for every layer:
//!   [`DmClient::with_retry`] redoes a verb up to its caller's attempt
//!   bound, backing off between tries, and gives up at once on a dead node.
//!   Disarming the injector suspends the probabilistic classes, but a
//!   fail-stop persists: a crash is *state*, not noise.
//! * **Slow NIC** — a per-node latency multiplier over a simulated time
//!   window (transient congestion; verbs still succeed).
//!
//! RPCs to the memory-node controller are **never faulted**: recovery and
//! allocation control traffic stays available (the paper's control plane
//! rides a reliable transport), which is what lets crash recovery sweep a
//! fail-stopped client's segments.  An RPC is priced by its request bytes
//! and the controller CPU time its handler reports; its reply lands in the
//! caller's buffer and costs nothing on the wire.  [`DmClient::rpc`] waits
//! the round trip out; [`DmClient::post_rpc`] charges a one-WQE ring's
//! posting cost instead and returns when the reply arrives, for the caller
//! to wait for only if it needs the reply sooner.
//!
//! **No remote lock.**  Clients coordinate through CASes on slot words
//! alone, and stripe migration keeps its pumpers apart by claiming a
//! stripe's forwarding marker in the in-process
//! [`migration::StripeDirectory`].  The lock-based baselines build their
//! spin lock on the public verbs (`ditto_baselines`' `shardlru`).
//!
//! **Recovery invariants.**  Given a dead client's id, a surviving
//! client's recovery pass (see `ditto_core`'s `recover_crashed_client`)
//! restores two invariants: the resident-byte gauge again equals a
//! forensic scan of what the table actually references; and every granted
//! byte of the dead client's segments that no slot references is returned
//! to its node ([`MemoryNode::owned_segments`] /
//! [`MemoryNode::range_granted`] expose the node-side registry recovery
//! reconciles against).  A client that dies inside a stripe commit is not
//! recovered (see [`migration`]).  All fault, retry and recovery counters
//! live in [`PoolStats::faults`] and survive [`PoolStats::reset`] — like
//! the contention group, they describe the deployment's whole life, not a
//! measurement interval.
//!
//! # Observability
//!
//! The [`obs`] module is a flight recorder for the simulated fabric, built
//! so that *watching* a run never changes it:
//!
//! * **Per-op trace spans** — each [`DmClient`] optionally owns a
//!   fixed-capacity ring of phase-stamped [`Span`]s
//!   ([`FlightRecorder`], armed via
//!   [`DmConfig::with_flight_recorder`]).  The verb layer records
//!   doorbell posts, per-WQE flight windows, the wait of every synchronous
//!   verb and RPC, and CQ polls; `ditto_core` adds translate/decode/publish/evict/
//!   relocate phases on top.  Recording reads the simulated clock but
//!   never advances it, so an armed run produces the **same simulated
//!   timeline** as a disarmed one; disarmed (the default) the entire cost
//!   is one `Option` discriminant check and the ring is never allocated.
//!   The ring overwrites its oldest span when full and counts the drop —
//!   steady state allocates nothing.
//! * **Sampled always-on arming** — for long runs,
//!   [`DmConfig::with_flight_recorder_sampled`] keeps the recorder armed
//!   but records full span sets for only one op in *N*: a deterministic
//!   `splitmix64` draw over `(client id, op sequence)` decides in
//!   [`DmClient::begin_op`], so identical runs sample identical op ids and
//!   an op's spans are kept or skipped *atomically* (no half-traced ops).
//!   Skipped ops cost one `Cell` read per would-be span; the kept/skipped
//!   split is counted in [`ObsSnapshot`] (`ops_sampled` / `ops_skipped`).
//! * **Per-phase latency histograms** — every recorded span also feeds a
//!   client-local [`LatencyHistogram`] for its [`Phase`], folded into
//!   [`PoolStats::phase_latency`] when the client drops and exported as
//!   the `ditto_phase_latency_seconds{phase=...}` summary.  Under 1-in-N
//!   sampling these are quantiles *of the sampled ops* — unbiased for the
//!   population because the draw is keyed on op sequence, not latency.
//! * **Critical-path attribution** — [`obs::attribution`] replays the
//!   span sets of pipelined ops and charges every instant to the
//!   highest-ranked phase active at that instant (CPU/lock work ≻ CQ
//!   waits ≻ wire flight), yielding an [`AttributionTable`]: per-phase
//!   *critical* (serialized) time vs raw span time, the overlap the
//!   pipeline hid, and which phase dominates the ops at/above p99.
//!   Because slices with no active span stay unattributed, the per-phase
//!   critical shares sum to at most 100 % of elapsed op time.  The
//!   `obs_report` bin (in `ditto-bench`) runs it offline over an exported
//!   Chrome trace.
//! * **Structured event log** — rare, high-signal transitions (verb
//!   faults, migration stripe states, resize-epoch bumps, crash-recovery
//!   phases) land in one bounded pool-wide [`EventLog`] as typed
//!   [`EventKind`]s.  Always on; overflow
//!   overwrites the oldest event and counts a drop in [`PoolStats`].  Test
//!   harnesses wrap
//!   assertions in [`obs::with_event_postmortem`] so a failure dumps the
//!   event tail into the panic message.
//! * **Exporters** — [`obs::chrome_trace_json`] renders spans + events as
//!   a Chrome-tracing / Perfetto JSON document (one `tid` per client);
//!   [`obs::text_exposition`] renders every counter group
//!   ([`PoolStats`], contention, faults, migration, obs itself) plus
//!   latency quantiles as a Prometheus-style text page.
//!
//! All recorder/event counters live in the lifetime **obs** group of
//! [`PoolStats`] ([`ObsSnapshot`]) and survive [`PoolStats::reset`].
//!
//! # Examples
//!
//! ```
//! use ditto_dm::{DmConfig, MemoryPool};
//!
//! let pool = MemoryPool::new(DmConfig::small());
//! let client = pool.connect();
//! let addr = pool.reserve(64).unwrap();
//! client.write(addr, b"hello disaggregated world");
//! let data = client.read(addr, 25);
//! assert_eq!(&data[..], b"hello disaggregated world");
//! ```

pub mod addr;
pub mod alloc;
pub mod client;
pub mod config;
pub mod cq;
pub mod error;
pub mod fault;
pub mod harness;
pub mod histogram;
pub mod memnode;
pub mod migration;
pub mod obs;
pub mod pool;
pub mod rpc;
pub mod stats;
pub mod topology;
pub mod wqe;

pub use addr::RemoteAddr;
pub use alloc::StripedAllocator;
pub use client::DmClient;
pub use config::DmConfig;
pub use cq::{Completion, CompletionQueue, CompletionStatus};
pub use error::{DmError, DmResult};
pub use fault::{FaultInjector, FaultPlan, NodeFailStop, SlowNic, VerbFate};
pub use harness::run_clients;
pub use histogram::LatencyHistogram;
pub use memnode::MemoryNode;
pub use migration::{
    MigrationEngine, MigrationPlanner, MigrationState, MoveJob, StripeDirectory, RECONCILE_POISON,
};
pub use obs::{
    attribution, AttributionTable, Event, EventKind, EventLog, FlightRecorder, Phase,
    PhaseAttribution, RecoveryPhase, Span, POOL_EVENT_CLIENT,
};
pub use pool::MemoryPool;
pub use rpc::{PostedRpc, RpcHandler};
pub use stats::{ContentionSnapshot, FaultSnapshot, ObsSnapshot, PoolStats, RunReport};
pub use topology::PoolTopology;
pub use wqe::WorkQueue;

// Compile-time pins of the threading contract documented above: the shared
// structures are `Send + Sync`, the per-thread connection handle is `Send`
// (movable into a spawned thread) but deliberately `!Sync`.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<DmClient>();
    assert_send_sync::<MemoryPool>();
    assert_send_sync::<MemoryNode>();
    assert_send_sync::<PoolStats>();
    assert_send_sync::<MigrationEngine>();
    assert_send_sync::<migration::StripeDirectory>();
};
