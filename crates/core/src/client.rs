//! The Ditto client: client-centric `Get`/`Set` with sample-based eviction
//! and distributed adaptive caching (§4.2, §4.3).
//!
//! One `DittoClient` is owned by each application thread.  All data-path
//! operations use only one-sided verbs against the memory pool, and the
//! independent verbs of each step are posted together behind one RNIC
//! doorbell per node (see `ditto_dm::wqe`):
//!
//! * **Get** — one doorbell carrying `RDMA_READ`s of the primary *and*
//!   secondary buckets — or, when the client holds a hint of where the key's
//!   slot is and what word it held, one `RDMA_READ` of that 40-byte slot
//!   alone (see the crate docs) — and one `RDMA_READ` of the object, posted
//!   behind a hinted slot READ on the same doorbell, or read alone once the
//!   buckets are decoded; then, once the object's key checks out, the
//!   (frequency-counter-cached) `RDMA_FAA` of the access count and — unless
//!   the stored timestamp is still fresh, see the crate docs — an
//!   asynchronous `RDMA_WRITE` of the stateless access information.
//! * **Set** — one round the `Set` planner picks (`client/round.rs`): the
//!   object `RDMA_WRITE` beside both bucket `RDMA_READ`s, then an `RDMA_CAS`
//!   of the slot's atomic field and the asynchronous metadata write; or, with
//!   a hint for the key, the `RDMA_WRITE` and, behind it, the `RDMA_CAS` of
//!   the hinted slot — no lookup; or, right after the key's `Get` missed, no
//!   bucket READ at all: the buckets that miss decoded give the insert slot,
//!   and when it is on the object's node one doorbell carries the
//!   `RDMA_WRITE`, the slot's metadata `RDMA_WRITE` and that slot's
//!   `RDMA_CAS` behind them, beside the verbs of the evictions the `Set`
//!   carries and runs, and the `Set` returns without polling them: the
//!   client's next op books the fill (see the crate docs).
//! * **Eviction** — an `RDMA_READ` of [`DittoConfig::SAMPLE_SPAN_SLOTS`]
//!   consecutive slots, about K live candidates (or, in the scattered-metadata
//!   ablation, K slot READs), and the `RDMA_FAA` on a history counter, a
//!   per-expert priority evaluation, a weighted victim choice and an
//!   `RDMA_CAS` converting the victim slot into an embedded history entry —
//!   riding the evicting `Set`'s rounds, or parked for the next starved `Set`
//!   to carry, its sample decoded and its pick's CPU work charged under the
//!   flight of a later round — or, when that sample was short, its
//!   re-sample READ flying under the client's next ops (see the crate docs).
//!
//! This is the **one data path**: posted WQEs, polled completions
//! (`work_queue()` → `ring()` → `poll_cq()`), with a synchronous single-verb
//! call where a step has one verb and nothing to overlap it with.  The
//! lookup posts both bucket READs, polls the primary's completion and
//! decodes it *while the secondary is still in flight*; `Set` posts its
//! object WRITE unsignalled (never waited for) next to the bucket READs; a
//! hinted `Get`'s object READ flies with the slot READ that validates it;
//! a hinted `Set`'s publish CAS, and a fill's insert CAS, is posted behind
//! the object WRITE it publishes — a fill's behind its slot's metadata
//! WRITE too — and a one-round fill waits for none of its round; a
//! frequency-counter FAA, due once the access it counts is known to be
//! real, rides the next hinted `Get`'s ring unsignalled, behind its READs,
//! and is never waited for; and an eviction's sample READ and history FAA
//! fly while its `Set` looks up, its victim CAS while it publishes — or
//! while the next fill does, a parked pick's decode and scoring while the
//! next round's verbs do.  Waits and the client CPU work
//! (`CPU_DECODE_SLOT_NS` per slot, `CPU_SCORE_CANDIDATE_NS` per candidate)
//! overlap the flights, and `end_op` polls whatever the op left
//! outstanding, up to what the work it leaves behind — a pending fill, a
//! parked eviction — still waits for (see the crate docs, *What an op
//! leaves behind*).
//! `tests/data_path_golden.rs` pins three seeded replays of it to the
//! nanosecond.
//!
//! The data path is **allocation-free in steady state**: bucket bytes land
//! in a per-client scratch buffer and an eviction's sample bytes inline in
//! the eviction that reads them, slots decode from borrowed
//! bytes into fixed-capacity [`InlineVec`]s, objects decode through
//! [`object::view`] without copying, and [`DittoClient::get_into`] writes
//! the value into a caller-provided buffer.
//!
//! With the hash table striped over several memory nodes (see
//! `ditto_dm::topology` and [`crate::hashtable`]), the verbs of one batch
//! fan out across the nodes' NICs: the two bucket READs of a lookup may
//! target two nodes, the object lands stripe-local to its primary bucket,
//! and eviction samples split per node — all decisions are made in global
//! index space, so a striped non-adaptive cache behaves byte-for-byte like
//! a single-node one (enforced by `tests/striped_parity.rs`).  The
//! adaptive machinery's sharded history (one counter per node) only
//! *approximates* the single global FIFO — see [`crate::history`] — so
//! adaptive weight trajectories may differ slightly across pool sizes.
//! Every operation revalidates the client's placement snapshot against the
//! pool's resize epoch, picking up online `add_node`/`drain_node` calls.

use crate::adaptive::{weight_wire, AdaptivePolicy, MAX_EXPERTS};
use crate::cache::{DittoCache, MigrationProgress};
use crate::config::DittoConfig;
use crate::error::{CacheError, CacheResult};
use crate::fc_cache::{FcCache, FcFlush};
use crate::hash::{fingerprint, fnv1a64};
use crate::hashtable::SampleFriendlyHashTable;
use crate::history::EvictionHistory;
use crate::inline::InlineVec;
use crate::local_tier::{CoherenceBoard, LocalTier, TierProbe, FREQ_ADMIT_THRESHOLD};
use crate::object;
use crate::recency::{self, EvictionAge, LAST_TS_DIVISOR};
use crate::recovery::{CrashPoint, RecoveryReport};
use crate::slot::{AtomicField, Slot, BUCKET_SIZE, SLOTS_PER_BUCKET};
use crate::stats::CacheStats;
use ditto_algorithms::{AccessContext, AccessKind, Metadata, EXT_WORDS};
use ditto_dm::alloc::{self, AllocService};
use ditto_dm::rpc::WEIGHT_SERVICE;
use ditto_dm::wqe::MAX_WQES;
use ditto_dm::{
    CompletionStatus, DmClient, DmError, DmResult, EventKind, MigrationEngine, Phase, PoolTopology,
    RecoveryPhase, RemoteAddr, StripeDirectory, StripedAllocator, WorkQueue,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

mod deferred;
mod evict;
mod lookup;
mod publish;
mod round;
use deferred::{Deferred, OpKind};
use evict::Eviction;
use lookup::{HintTable, Lookup, MissMemo};
use round::{plan_round, Plan, Shape};

/// Maximum CAS retries before an operation gives up, and the attempt bound of
/// every data-path verb through transient faults ([`DmClient::with_retry`]).
pub(crate) const MAX_RETRIES: usize = 8;
/// Simulated back-off charged to a client whose slot CAS lost a race before
/// it retries (bounded retry/back-off instead of an immediate hot respin).
const CAS_RETRY_BACKOFF_NS: u64 = 200;
/// Maximum eviction attempts while trying to free memory for one allocation.
const MAX_EVICTION_ATTEMPTS: usize = 256;

/// Slots surfaced by one lookup: the primary and secondary buckets.
const SEARCH_SLOTS: usize = 2 * SLOTS_PER_BUCKET;
/// Capacity of the eviction-candidate buffer: a bucket eviction scores both
/// buckets' slots, and a sampling eviction re-samples only while it holds
/// fewer than two candidates, so it reaches at most one plus a whole span's
/// worth ([`DittoConfig::SAMPLE_SPAN_SLOTS`]).
const CANDIDATES_CAP: usize = SEARCH_SLOTS;
const _: () = assert!(CANDIDATES_CAP > DittoConfig::SAMPLE_SPAN_SLOTS);

/// How many misses may elapse before a client refreshes its cached copy of a
/// history shard's global counter.
const HISTORY_COUNTER_REFRESH: u64 = 256;

type SearchSlots = InlineVec<(RemoteAddr, Slot), SEARCH_SLOTS>;
type Candidates = InlineVec<(RemoteAddr, Slot), CANDIDATES_CAP>;

/// A victim pick ([`DittoClient::select_victim`]): the candidate's index,
/// its history word (the bitmap of the experts that would have evicted it
/// and the probability that it was drawn, [`crate::history::expert_bitmap`]),
/// the expert whose choice it was, and the metadata they scored it on —
/// which the experts' `on_evict` then sees too, once the victim is out.
#[derive(Clone, Copy, Default)]
struct Pick {
    idx: usize,
    history_word: u64,
    chosen: usize,
    scored: Metadata,
}

/// A per-thread Ditto cache client.
pub struct DittoClient {
    dm: DmClient,
    config: Arc<DittoConfig>,
    table: SampleFriendlyHashTable,
    history: EvictionHistory,
    scratch: RemoteAddr,
    /// The experts and this client's local weights.
    policy: AdaptivePolicy,
    stats: Arc<CacheStats>,
    alloc: StripedAllocator,
    /// The frequency-counter cache; `None` at `fc_cache_mb = 0`, where every
    /// access sends its own FAA.
    fc: Option<FcCache>,
    /// Last slot word seen per key hash, and where: lets a `Get` READ that
    /// one slot — and the object right behind it — instead of both buckets,
    /// and a replacing `Set` CAS it without reading anything (see
    /// [`lookup`]).
    hints: HintTable,
    /// What this client's last `Get`, if it missed and no `Set` came since,
    /// saw of the key's buckets: the `Set` that fills the key next publishes
    /// from it without reading them again (see [`lookup::MissMemo`]).
    miss_memo: Option<MissMemo>,
    /// The work this client's ops left behind for its later ops: the
    /// pending fill, the parked eviction, FC flushes, a weight reply (see
    /// the crate docs, *What an op leaves behind*).
    deferred: Deferred,
    /// Rounds this client posted on the `Set` path, by `round::Shape`.
    rounds_posted: [u64; 6],
    /// The op id of the client's last `Set`: what its polls book lands for
    /// the op after the next ([`evict::Eviction::landed`]).
    set_op: u64,
    /// This client's own bumps of each [`CoherenceBoard`] slot.  Its own slot
    /// CASes keep its hints exact, so a hint is stamped with — and filtered
    /// by — the mutations *other* clients made: board epoch minus these.
    own_bumps: Box<[u32]>,
    /// The compute-side local tier ([`crate::local_tier`]); `None` unless
    /// [`DittoConfig::with_local_tier`] enabled it.
    tier: Option<LocalTier>,
    /// Shared per-key-hash mutation epochs: bumped by every slot-word
    /// mutation this client performs, checked on every tier probe.
    board: Arc<CoherenceBoard>,
    /// The eviction age this client observes: what decides whether a hit
    /// rewrites the slot's `last_ts` ([`crate::recency`]).
    eviction_age: EvictionAge,
    rng: StdRng,
    /// Per-shard estimates of the sharded global history counters.
    counter_estimates: Vec<u64>,
    counters_known: Vec<bool>,
    /// Monotone miss count; per-shard refresh staleness is measured against
    /// it so refreshing one shard does not postpone another's refresh.
    miss_count: u64,
    last_refresh_miss_count: Vec<u64>,
    /// Topology snapshot backing allocation placement; revalidated against
    /// the pool's resize epoch at every operation.
    topology: PoolTopology,
    /// The bucket-range migration engine (shared with the cache): the job
    /// queue [`DittoClient::pump_migration`] drains.
    engine: Arc<MigrationEngine>,
    /// Stripe-directory version captured at the start of the current `Set`
    /// attempt; a bump since then means a cutover raced the attempt (client
    /// redirect rule 3 of `ditto_dm::migration`).
    mig_token: u64,
    use_extension: bool,
    /// Set once an allocation has seen the pool full; under pressure the
    /// client evicts and recycles locally instead of paying a doomed
    /// segment-`ALLOC` RPC per `Set`.
    mem_pressure: bool,
    /// This client's crash-recovery journal slot
    /// ([`DittoConfig::enable_crash_recovery_journal`]); `None` when the
    /// journal is disabled or the client id falls outside the region.
    journal: Option<RemoteAddr>,
    /// Base of the whole journal region — recovery reads *other* clients'
    /// slots through it ([`DittoClient::recover_crashed_client`]).
    journal_base: Option<RemoteAddr>,
    /// Armed crash point for failover tests (see
    /// [`DittoClient::arm_set_crash`]); fires once.
    crash_armed: Option<CrashPoint>,
    /// Set when an armed crash point fired: the in-flight `Set` stopped
    /// dead mid-protocol, skipping every cleanup step after the point.
    crashed: bool,
    /// Scratch for the two bucket READs of a lookup (front: primary).
    bucket_buf: Box<[u8]>,
    /// Scratch for object READs; grows to the largest object seen.
    obj_buf: Vec<u8>,
    /// Scratch for `Set` object encoding; grows to the largest object set.
    encode_buf: Vec<u8>,
}

impl DittoClient {
    pub(crate) fn new(cache: DittoCache) -> Self {
        let use_extension = cache.uses_extension();
        let DittoCache {
            pool,
            config,
            table,
            history,
            scratch,
            policy,
            stats,
            migration,
            board,
            journal_base,
            ..
        } = cache;
        let dm = pool.connect();
        let topology = pool.topology();
        let segment = config.alloc_segment_objects.max(1) * config.avg_object_blocks() * 64;
        let alloc = StripedAllocator::new(topology.active(), segment);
        let num_shards = history.num_shards() as usize;
        let fc = config
            .fc_capacity_entries()
            .map(|capacity| FcCache::new(config.fc_threshold, capacity));
        let seed = 0x5eed_0000 + dm.client_id() as u64;
        let tier = (config.local_tier_capacity > 0)
            .then(|| LocalTier::new(config.local_tier_capacity, config.local_tier_lease_ns));
        DittoClient {
            use_extension,
            table,
            history,
            scratch,
            policy,
            stats,
            alloc,
            fc,
            hints: HintTable::new(),
            miss_memo: None,
            deferred: Deferred::default(),
            rounds_posted: [0; 6],
            set_op: 0,
            own_bumps: vec![0; board.slots()].into_boxed_slice(),
            tier,
            board,
            eviction_age: EvictionAge::default(),
            rng: StdRng::seed_from_u64(seed),
            counter_estimates: vec![0; num_shards],
            counters_known: vec![false; num_shards],
            miss_count: 0,
            last_refresh_miss_count: vec![0; num_shards],
            topology,
            engine: migration,
            mig_token: 0,
            mem_pressure: false,
            journal: DittoCache::journal_slot(journal_base, dm.client_id()),
            journal_base,
            crash_armed: None,
            crashed: false,
            bucket_buf: vec![0u8; 2 * BUCKET_SIZE].into_boxed_slice(),
            obj_buf: Vec::new(),
            encode_buf: Vec::new(),
            config,
            dm,
        }
    }

    /// The underlying DM client (simulated clock, verb statistics).
    pub fn dm(&self) -> &DmClient {
        &self.dm
    }

    /// Looks up `key`, returning the value on a hit.
    ///
    /// Allocates the returned buffer; the allocation-free variant is
    /// [`DittoClient::get_into`].
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.get_into(key, &mut out).then_some(out)
    }

    /// Looks up `key`; on a hit, clears `out`, appends the value and returns
    /// `true`.  Reusing `out` across calls makes the steady-state `Get` path
    /// allocation-free.
    pub fn get_into(&mut self, key: &[u8], out: &mut Vec<u8>) -> bool {
        self.maybe_refresh_topology();
        self.dm.begin_op();
        self.eviction_age.begin_op(self.dm.now_ns());
        let hash = fnv1a64(key);
        self.settle_before(OpKind::Get(hash));
        self.miss_memo = None;
        let hit = self.get_inner(key, hash, out);
        self.end_op();
        hit
    }

    /// Inserts or updates `key` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the object does not fit the 254-block (≈16 KiB) size-class
    /// limit or the 48-bit slot pointer, if the `Set` is dropped under
    /// faults, or if the memory pool cannot be made to fit the object even
    /// after repeated evictions ([`CacheError::OutOfMemory`]).  The variant
    /// with typed errors is [`DittoClient::try_set`].
    pub fn set(&mut self, key: &[u8], value: &[u8]) {
        self.try_set(key, value).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Inserts or updates `key` with `value`, reporting oversized objects,
    /// pointer-encoding overflows, allocations that found no memory and
    /// dropped `Set`s as typed [`crate::CacheError`]s instead of panicking.
    /// `Ok` means the value was published, or the key invalidated in its
    /// place (a miss until re-filled, like an eviction).
    /// [`CacheError::SetDropped`] means neither could be vouched for: the
    /// write may or may not have landed.
    pub fn try_set(&mut self, key: &[u8], value: &[u8]) -> CacheResult<()> {
        self.maybe_refresh_topology();
        self.dm.begin_op();
        self.set_op = self.dm.op_id();
        self.eviction_age.begin_op(self.dm.now_ns());
        self.settle_before(OpKind::Set);
        let memo = self.miss_memo.take();
        // The reusable per-client encode buffer, moved out meanwhile so the
        // borrow checker can see it is disjoint from `self`.
        let mut encoded = std::mem::take(&mut self.encode_buf);
        let result = self.set_inner(key, value, memo, &mut encoded);
        self.encode_buf = encoded;
        self.end_op();
        result
    }

    /// Revalidates the cached topology snapshot against the pool's resize
    /// epoch, refreshing the allocator's active-node set after an online
    /// `add_node`/`drain_node` (cheap epoch compare in steady state).
    fn maybe_refresh_topology(&mut self) {
        // The snapshot carries its own epoch: one taken while a resize races
        // is simply refreshed again at the next operation.
        if self.dm.resize_epoch() != self.topology.epoch() {
            self.topology = self.dm.pool().topology();
            self.alloc.set_active(self.topology.active());
            // New objects allocate on their stripe's assigned node, so the
            // assignment follows a membership change before the first pump.
            self.table.directory().reassign(&self.topology);
            // The active set changed, so the memory-pressure verdict is
            // stale: an added node has fresh capacity to probe, and after a
            // drain the pressure state re-establishes itself on the first
            // failing allocation anyway.
            self.mem_pressure = false;
        }
    }

    // ------------------------------------------------------------------
    // Migration protocol (see `ditto_dm::migration`, client redirect rules)
    // ------------------------------------------------------------------

    /// `verb`, retried through transient faults up to [`MAX_RETRIES`]
    /// attempts ([`DmClient::with_retry`]).
    fn retry<T>(&self, verb: impl FnMut(&DmClient) -> DmResult<T>) -> DmResult<T> {
        self.dm.with_retry(MAX_RETRIES, verb)
    }

    /// Records a `phase` span from `t0` to now.
    fn span_since(&self, phase: Phase, t0: u64, detail: u32) {
        self.dm.record_span(phase, t0, self.dm.now_ns(), detail);
    }

    /// Asynchronous write of advisory metadata — a slot's, or an object's
    /// extension words.  Best-effort by design (the paper's "stateless
    /// information"): a faulted async WRITE — or one a stripe reconcile READ
    /// before it landed — only loses one update, so errors are ignored
    /// rather than retried.
    fn write_advisory(&self, addr: RemoteAddr, bytes: &[u8]) {
        let _ = self.dm.try_write_async(addr, bytes);
    }

    /// Charges the client CPU cost of decoding `slots` hash-table slots.
    /// Between a doorbell and the poll of its completions it overlaps the
    /// in-flight transfers — which is exactly what the critical-path
    /// attribution ([`ditto_dm::obs::attribution`]) makes visible: decode
    /// time outranks the concurrent flight span, so the overlapped wire
    /// time drops out of the op's serialized total.  The
    /// span also feeds the `phase="decode"` latency histogram when the op
    /// survived the recorder's sampling draw.
    fn charge_decode(&self, slots: usize) {
        let t0 = self.dm.now_ns();
        self.dm
            .advance_ns(slots as u64 * DittoConfig::CPU_DECODE_SLOT_NS);
        self.span_since(Phase::Decode, t0, slots as u32);
    }

    /// Charges the client CPU cost of gathering and scoring `candidates`
    /// eviction candidates (see [`DittoClient::charge_decode`]).
    fn charge_score(&self, candidates: usize) {
        self.dm
            .advance_ns(candidates as u64 * DittoConfig::CPU_SCORE_CANDIDATE_NS);
    }

    /// Canonical resident size of an object allocation (whole 64-byte
    /// blocks, matching both the allocator's and the slot's accounting).
    fn resident_bytes_for(size: usize) -> u64 {
        alloc::blocks_for(size) * alloc::BLOCK_SIZE
    }

    /// Flushes buffered state — every frequency-counter increment the FC
    /// cache holds and the pending expert-weight penalties — as a client
    /// must before it leaves the compute pool (or an experiment ends).  A
    /// weight sync's reply still in flight is waited for and adopted before
    /// the penalties buffered since are shipped.
    ///
    /// The drain posts one `RDMA_FAA` per buffered counter, in address
    /// order and so grouped by node, [`MAX_WQES`] to a ring: one doorbell
    /// per node the ring touches, and one wait per ring, for each node's
    /// last FAA (the only ones signalled) and any error completion.  N
    /// counters on one node cost ⌈N / `MAX_WQES`⌉ round trips, not N.
    ///
    /// A counter whose FAA failed, or was flushed behind one that did (the
    /// RC rule, [`ditto_dm::wqe`]), goes out again in the next ring: at most
    /// `MAX_RETRIES` attempts under [`DmClient::back_off_transient`]'s rule,
    /// as [`DmClient::with_retry`] gives a single verb, and a flushed FAA
    /// never ran, so it spends no attempt.  A counter on a failed node, or
    /// on one this client has no queue pair to (its FAA completes
    /// `NodeRemoved`), is dropped, and so is every other counter on that
    /// node: the counters are advisory.
    pub fn flush(&mut self) {
        self.settle_before(OpKind::Flush);
        let mut drained = self.fc.as_mut().map(FcCache::flush_all).unwrap_or_default();
        // A counter recorded before a cutover is owed to its word's live
        // home; regrouped by node once re-translated, and merged with the
        // counter recorded there since.  (`post_fc_faas` re-translates each
        // FAA again, which a ring retried across a cutover needs.)
        let dir = self.table.directory();
        for (addr, _) in &mut drained {
            *addr = Self::counter_home(dir, *addr);
        }
        drained.sort_by_key(|(addr, _)| addr.pack());
        drained.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        // Each counter with the failed attempts it has spent.
        let mut pending = VecDeque::with_capacity(drained.len());
        for counter in drained {
            self.stats.record_fc_flush();
            pending.push_back((counter, 0));
        }
        while !pending.is_empty() {
            let mut ring: InlineVec<(FcFlush, usize), MAX_WQES> = InlineVec::new();
            ring.extend(pending.drain(..pending.len().min(MAX_WQES)));
            let ids = {
                let mut wq = self.dm.work_queue();
                let counters = ring.iter().map(|&(c, _)| c);
                let ids = Self::post_fc_faas(&mut wq, self.table.directory(), counters, true);
                wq.ring();
                ids
            };
            // The one wait: every completion the ring produced — each
            // node's last FAA, and any error before it.  Between ops, the
            // pending fill booked above, the queue holds nothing else but
            // what the parked eviction has in flight — a one-round fill's
            // first sample READ and history-id FAA, or a deferred re-sample
            // READ — which the poll books on it.
            let mut status = [CompletionStatus::Success; MAX_WQES];
            while let Some(completion) = self.next_completion(&mut [None, None]) {
                if ids.contains(&completion.wr_id) {
                    status[(completion.wr_id - ids.start) as usize] = completion.status;
                }
            }
            let mut again: InlineVec<(FcFlush, usize), MAX_WQES> = InlineVec::new();
            // Nodes this client has no queue pair to.  Such a node's first
            // FAA in the ring completes `NodeRemoved`, ahead of those
            // flushed behind it.
            let mut removed: InlineVec<u16, MAX_WQES> = InlineVec::new();
            for (&(counter, failed), status) in ring.iter().zip(status) {
                let retry = match status {
                    CompletionStatus::Success => None,
                    // Never ran, so it spends no attempt.
                    CompletionStatus::Flushed { mn_id } => {
                        (!self.dm.node_failed(mn_id) && !removed.contains(&mn_id)).then_some(failed)
                    }
                    CompletionStatus::NodeRemoved { mn_id } => {
                        removed.push(mn_id);
                        None
                    }
                    faulted => {
                        let e = faulted.check().expect_err("a status other than success");
                        let failed = failed + 1;
                        (failed < MAX_RETRIES && self.dm.back_off_transient(&e)).then_some(failed)
                    }
                };
                if let Some(failed) = retry {
                    again.push((counter, failed));
                }
            }
            // Retries lead the next ring, in their order.
            for &entry in again.iter().rev() {
                pending.push_front(entry);
            }
            if !removed.is_empty() {
                pending.retain(|((addr, _), _)| !removed.contains(&addr.mn_id));
            }
        }
        self.sync_weights();
    }

    // ------------------------------------------------------------------
    // Crash-recovery journal (see `recovery` module docs)
    // ------------------------------------------------------------------
    //
    // Slot layout: eight little-endian u64 words —
    //   [new_mn, new_off, new_len, old_mn, old_off, old_len, victim, victim_len]
    // where `victim` is the packed address of the object a one-round fill's
    // carried victim CAS takes out ([`DittoClient::journal_set_fill`]).
    // A slot is *armed* iff `new_len` (byte offset 16) is non-zero.  All
    // journal writes are best-effort: the journal narrows the recovery
    // search, it does not gate the data path, so a persistently faulted
    // journal write degrades to "segment sweep finds the orphan anyway".

    /// Arms this client's journal slot with the in-flight allocation and a
    /// zeroed old half and victim.  No-op when the journal is disabled.
    fn journal_arm(&self, new_addr: RemoteAddr, new_len: usize) {
        let Some(slot) = self.journal else { return };
        let mut buf = [0u8; 64];
        buf[0..8].copy_from_slice(&u64::from(new_addr.mn_id).to_le_bytes());
        buf[8..16].copy_from_slice(&new_addr.offset.to_le_bytes());
        buf[16..24].copy_from_slice(&(new_len as u64).to_le_bytes());
        let _ = self.retry(|dm| dm.try_write(slot, &buf));
    }

    /// Records (or zeroes, for `None`) the allocation a publish CAS is
    /// about to displace in the journal's old half.  Must run before
    /// *every* publish CAS while armed — including insert paths that
    /// displace nothing — so a stale old triple from an earlier failed
    /// replace attempt can never be replayed.
    fn journal_set_old(&self, old: Option<(RemoteAddr, usize)>) {
        let Some(slot) = self.journal else { return };
        let mut buf = [0u8; 24];
        if let Some((addr, len)) = old {
            buf[0..8].copy_from_slice(&u64::from(addr.mn_id).to_le_bytes());
            buf[8..16].copy_from_slice(&addr.offset.to_le_bytes());
            buf[16..24].copy_from_slice(&(len as u64).to_le_bytes());
        }
        let _ = self.retry(|dm| dm.try_write(slot.add(24), &buf));
    }

    /// Records, before a one-round fill's ring, a zeroed old half — an
    /// insert displaces nothing — and the object of the victim its carried
    /// CAS takes out, if any.  The fill frees that victim only once it is
    /// booked, a later op: a client that dies first leaves it to recovery,
    /// which frees it if no slot references it.
    fn journal_set_fill(&self, victim: Option<(RemoteAddr, usize)>) {
        let Some(slot) = self.journal else { return };
        let mut buf = [0u8; 40];
        if let Some((addr, len)) = victim {
            buf[24..32].copy_from_slice(&addr.pack().to_le_bytes());
            buf[32..40].copy_from_slice(&(len as u64).to_le_bytes());
        }
        let _ = self.retry(|dm| dm.try_write(slot.add(24), &buf));
    }

    /// Disarms the journal slot (zeroes the `new_len` validity word) once
    /// the `Set` protocol reaches a self-consistent state.
    fn journal_clear(&self) {
        let Some(slot) = self.journal else { return };
        let _ = self.retry(|dm| dm.try_write(slot.add(16), &[0u8; 8]));
    }

    /// Whether the armed test crash point matches `point`; fires at most
    /// once and marks this client crashed.
    fn crash_fired(&mut self, point: CrashPoint) -> bool {
        if self.crash_armed == Some(point) {
            self.crash_armed = None;
            self.crashed = true;
            return true;
        }
        false
    }

    /// Arms a one-shot crash inside the next `set` for failover tests: the
    /// operation stops dead at `point`, skipping every later protocol step
    /// exactly as a process kill would.
    #[doc(hidden)]
    pub fn arm_set_crash(&mut self, point: CrashPoint) {
        self.crash_armed = Some(point);
        self.crashed = false;
    }

    /// Whether an armed crash point has fired on this client.  A crashed
    /// client must not issue further operations; tests drop it and run
    /// [`DittoClient::recover_crashed_client`] from a survivor.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Returns every block parked on this client's local free ranges to
    /// the memory nodes.  Recovery's segment sweep frees dead-owned ranges
    /// the node still attributes to the dead client; ranges a *live*
    /// client holds parked are invisible to the node, so survivors must
    /// release their hoards (or quiesce) before a sweep runs.
    #[doc(hidden)]
    pub fn release_parked_memory(&mut self) -> u64 {
        self.alloc.release_excess(&self.dm, 0)
    }

    /// Recovers the debris of a crashed client (see the [`crate::recovery`]
    /// module docs for the failure model): replays its redo-journal entry
    /// against the table to fix the resident gauge, and sweeps its
    /// unreferenced segment space back to the memory nodes.
    ///
    /// Run from any *live* client once `dead_id` is known dead.  Other
    /// surviving clients must have released their parked free ranges
    /// ([`DittoClient::release_parked_memory`]) or quiesced first — a
    /// parked range inside a dead-owned segment is invisible to the node
    /// and would otherwise be double-freed by the sweep.  The recovering
    /// client releases its own hoard automatically.
    pub fn recover_crashed_client(&mut self, dead_id: u32) -> RecoveryReport {
        let recovery_event = |phase: RecoveryPhase, dm: &DmClient| {
            dm.pool().record_event(
                dm.now_ns(),
                dm.client_id(),
                EventKind::Recovery {
                    dead_client: dead_id,
                    phase,
                },
            );
        };
        let mut report = RecoveryReport::default();
        // This client's own fill settles first: its journal and its object.
        // And its hoard goes back to the nodes before anything is replayed:
        // a journalled block it freed and parks would still look granted.
        self.settle_before(OpKind::Recover);
        self.alloc.release_excess(&self.dm, 0);

        // 1. One forensic scan of the whole table: both the journal replay
        //    and the gap sweep reconcile against this single snapshot.
        let refs = self.referenced_objects();

        // 2. Journal replay — fixes the *resident gauge* only; the memory
        //    itself is returned by the segment sweep below.  Whichever of
        //    the entry's two allocations the table does not reference is
        //    the orphan still counted as resident.
        recovery_event(RecoveryPhase::JournalReplay, &self.dm);
        if let Some(slot_addr) = DittoCache::journal_slot(self.journal_base, dead_id) {
            let mut buf = [0u8; 64];
            if self
                .retry(|dm| dm.try_read_into(slot_addr, &mut buf))
                .is_ok()
            {
                let word = |i: usize| {
                    u64::from_le_bytes(buf[i * 8..(i + 1) * 8].try_into().expect("8-byte word"))
                };
                if word(2) != 0 {
                    report.journal_entries_replayed = 1;
                    let new_resident = Self::resident_bytes_for(word(2) as usize);
                    let (new_mn, new_off) = (word(0) as u16, word(1));
                    let published = refs
                        .get(new_mn as usize)
                        .is_some_and(|v| v.binary_search_by_key(&new_off, |&(off, _)| off).is_ok());
                    if published {
                        // Publish CAS landed; the displaced old allocation
                        // (when the entry records one) is the orphan.  It
                        // may live inside a *live* client's segment — which
                        // the dead-owned sweep below never visits — so it
                        // is also freed here; `free_segment` trims the
                        // owner registry, so the sweep cannot double-free
                        // a dead-owned old range.
                        // An insert records no old half: its length is 0,
                        // which is no allocation (not one block).
                        if word(5) != 0 {
                            let old_bytes = Self::resident_bytes_for(word(5) as usize);
                            let stats = self.dm.pool().stats();
                            stats.record_resident_free(word(3) as u16, old_bytes);
                            stats.record_recovered_object(old_bytes);
                            report.recovered_bytes = old_bytes;
                            report.swept_bytes +=
                                self.sweep_gap(word(3) as u16, word(4), old_bytes);
                        }
                    } else {
                        // Died before (or without) publishing: the journal
                        // entry is the only record of the new allocation.
                        self.recover_orphan((new_mn, new_off), new_resident, &mut report);
                    }
                    // A one-round fill's carried victim, taken out by its
                    // CAS and freed only once the fill is booked: the dead
                    // client's to free, if the CAS won — and then no slot
                    // references it.  One a lost CAS left in its slot is
                    // referenced still; one whose displacer freed it is no
                    // longer granted, the survivors' parked ranges released.
                    if word(7) != 0 {
                        let victim = RemoteAddr::unpack(word(6));
                        let referenced = refs.get(victim.mn_id as usize).is_some_and(|v| {
                            v.binary_search_by_key(&victim.offset, |&(off, _)| off)
                                .is_ok()
                        });
                        if !referenced {
                            let resident = Self::resident_bytes_for(word(7) as usize);
                            let at = (victim.mn_id, victim.offset);
                            self.recover_orphan(at, resident, &mut report);
                        }
                    }
                    // Disarm the entry so a second recovery pass (two
                    // survivors racing, or a retried harness) is a no-op
                    // instead of a double gauge debit.
                    let _ = self.retry(|dm| dm.try_write(slot_addr.add(16), &[0u8; 8]));
                }
            }
        }

        // 3. Segment gap sweep: return every dead-owned byte no table slot
        //    references.  Our own parked ranges could alias dead-owned
        //    space (we may have evicted the dead client's objects): the
        //    local hoard went back at the start.
        recovery_event(RecoveryPhase::GapSweep, &self.dm);
        for mn in 0..refs.len() as u16 {
            let Ok(node) = self.dm.pool().node(mn) else {
                continue;
            };
            let node_refs = &refs[mn as usize];
            for (seg_off, seg_len) in node.owned_segments(dead_id) {
                let seg_end = seg_off + seg_len;
                let mut cursor = seg_off;
                let from = node_refs.partition_point(|&(off, _)| off < seg_off);
                for &(off, len) in &node_refs[from..] {
                    if off >= seg_end {
                        break;
                    }
                    if off > cursor {
                        report.swept_bytes += self.sweep_gap(mn, cursor, off - cursor);
                    }
                    cursor = cursor.max(off + len);
                }
                if cursor < seg_end {
                    report.swept_bytes += self.sweep_gap(mn, cursor, seg_end - cursor);
                }
            }
        }
        recovery_event(RecoveryPhase::Done, &self.dm);
        report
    }

    /// Frees a journalled allocation of `resident` bytes at `(mn, offset)`
    /// that no slot references.  It may have been carved from a *foreign*
    /// live client's grant (displaced ranges park locally and get reused)
    /// that the dead-owned sweep never visits — so it is freed right here.
    /// Guard: when the node no longer counts the range as granted, a
    /// survivor has freed it and returned the memory — a publish that
    /// landed after all and was evicted since, a victim another client
    /// displaced — so the gauge is already correct and replaying would
    /// double-debit.
    fn recover_orphan(&self, (mn, offset): (u16, u64), resident: u64, report: &mut RecoveryReport) {
        let granted = self
            .dm
            .pool()
            .node(mn)
            .is_ok_and(|node| node.range_granted(offset, resident));
        if granted {
            let stats = self.dm.pool().stats();
            stats.record_resident_free(mn, resident);
            stats.record_recovered_object(resident);
            report.recovered_bytes += resident;
            // Freeing trims the owner registry, so a range inside a
            // dead-owned segment is not swept (and freed) a second time
            // below.
            report.swept_bytes += self.sweep_gap(mn, offset, resident);
        }
    }

    /// Frees one unreferenced gap of a dead client's segment through the
    /// allocation service (an RPC, so it is charged like any recovery
    /// traffic and works even against fail-stopped verb paths).  Returns
    /// the bytes freed, or 0 when the RPC could not reach the node.
    fn sweep_gap(&self, mn_id: u16, offset: u64, len: u64) -> u64 {
        match AllocService::free(&self.dm, mn_id, offset, len) {
            Ok(()) => len,
            Err(_) => 0,
        }
    }

    // ------------------------------------------------------------------
    // Get path
    // ------------------------------------------------------------------

    fn get_inner(&mut self, key: &[u8], hash: u64, out: &mut Vec<u8>) -> bool {
        let fp = fingerprint(hash);
        if self.tier.is_some() && self.tier_get(hash, key, out) {
            return true;
        }
        for attempt in 0..MAX_RETRIES {
            // Captured *before* the bucket READ: a writer whose publish CAS
            // completed before this capture also bumped before it, so the
            // lookup below observes that writer's slot word — the value
            // admitted under `board_epoch` is current as of the capture.
            // (Capturing after the lookup would leave a window where a
            // racing Set replaces the slot, frees the old object — whose
            // bytes survive until recycled — and bumps, all between our
            // bucket READ and the capture: the stale object READ would then
            // be admitted under an epoch that already includes the bump.)
            // A hinted lookup whose object is off its slot's node reads it
            // again once both READs are out, and serves the object only if
            // it has not moved (`lookup`'s module docs).
            let board_epoch = self.board.epoch(hash);
            // A miss memo is trusted on the same two readings.
            let dir_version = self.table.directory().version();
            // The first attempt may go by the slot this client last saw
            // the key in, and the word it held — unless the board has seen
            // another client mutate it since.
            let hint_epoch = self.hint_epoch(hash, board_epoch);
            let hint = (attempt == 0)
                .then(|| self.hints.get(hash, hint_epoch))
                .flatten()
                .map(|hint| (hint, board_epoch));
            let Ok(lookup) = self.search(hash, fp, Plan::default(), &[], &mut [None, None], hint)
            else {
                // The lookup could not complete within its fault budget
                // (or its node fail-stopped).  Degrade to a miss: for a
                // cache a spurious miss is indistinguishable from an
                // eviction and always linearizable — only serving a wrong
                // *value* would violate the history.
                self.stats.record_get_degraded();
                self.stats.record_miss();
                return false;
            };
            let Some((slot_addr, slot)) = lookup.found else {
                self.on_miss(&lookup.slots, hash);
                self.miss_memo = Some(MissMemo {
                    hash,
                    slots: lookup.slots,
                    board_epoch,
                    dir_version,
                });
                return false;
            };
            let obj_len = slot.atomic.object_bytes() as usize;
            if self.obj_buf.len() < obj_len {
                self.obj_buf.resize(obj_len, 0);
            }
            let fetched = if lookup.hint_held {
                // The object READ posted beside the hinted slot READ already
                // fetched this very object: no second round trip.
                Ok(())
            } else {
                let (obj_addr, buf) = (slot.atomic.object_addr(), &mut self.obj_buf[..obj_len]);
                self.dm
                    .with_retry(MAX_RETRIES, |dm| dm.try_read_into(obj_addr, buf))
            };
            if fetched.is_err() {
                // A faulted object READ degrades to a miss (linearizable —
                // see the lookup fault handling above).
                self.stats.record_get_degraded();
                self.stats.record_miss();
                return false;
            }
            let Some(view) = object::view(&self.obj_buf[..obj_len]) else {
                // Raced with an eviction that already reused the blocks.
                continue;
            };
            if view.key != key {
                // Fingerprint + hash collision or a concurrent replacement.
                continue;
            }
            let ext = view.ext;
            out.clear();
            out.extend_from_slice(view.value);
            let (last_ts, flushed) = self.record_access(slot_addr, Some(slot.last_ts));
            self.record_extension(
                &slot,
                slot.atomic.object_addr(),
                Some(&ext),
                AccessKind::Hit,
            );
            self.stats.record_hit();
            if !lookup.hint_held {
                self.hint_note(hash, slot_addr, slot.atomic.encode(), hint_epoch);
            }
            // The tier admits hot keys only (`crate::local_tier`,
            // *Admission*).  A due FC flush means the key just crossed the
            // flush threshold on this client — unambiguously hot even though
            // the buffered delta reads as zero again.
            let hot = flushed || self.buffered_accesses(slot_addr) >= FREQ_ADMIT_THRESHOLD;
            if let Some(tier) = self.tier.as_mut().filter(|_| hot) {
                let (word, now) = (slot.atomic.encode(), self.dm.now_ns());
                tier.admit(hash, key, out, slot_addr, word, last_ts, now, board_epoch);
            }
            return true;
        }
        self.stats.record_miss();
        false
    }

    fn on_miss(&mut self, slots: &[(RemoteAddr, Slot)], hash: u64) {
        self.eviction_age.observe_miss();
        if self.policy.is_adaptive() {
            if !self.config.enable_lightweight_history {
                // Ablation: a separate history structure needs its own index
                // lookup on every miss (tolerated when faulted — the regret
                // check then runs on the bucket bytes already in hand).
                let mut index_buf = [0u8; 64];
                let _ = self.dm.try_read_into(self.scratch, &mut index_buf);
            }
            self.check_regret(slots, hash);
        }
        self.stats.record_miss();
    }

    // ------------------------------------------------------------------
    // Compute-side local tier (see `crate::local_tier`)
    // ------------------------------------------------------------------

    /// Tries to serve `key` from the local tier.  Returns `true` when the
    /// value was copied into `out` — either straight from a lease-valid
    /// entry (zero messages) or after a successful 8-byte slot-word
    /// revalidation (one small READ).
    fn tier_get(&mut self, hash: u64, key: &[u8], out: &mut Vec<u8>) -> bool {
        let board_epoch = self.board.epoch(hash);
        let now = self.dm.now_ns();
        let Some(tier) = self.tier.as_mut() else {
            return false;
        };
        match tier.probe(hash, key, now, board_epoch, out) {
            TierProbe::Absent => false,
            TierProbe::Invalidated => {
                self.stats.record_local_invalidation();
                false
            }
            TierProbe::Served { slot_addr, last_ts } => {
                self.dm.advance_ns(DittoConfig::CPU_LOCAL_HIT_NS);
                self.span_since(Phase::LocalHit, now, 1);
                self.stats.record_local_hit();
                self.stats.record_hit();
                self.tier_feed_frequency(hash, slot_addr, last_ts);
                true
            }
            TierProbe::LeaseExpired {
                slot_addr,
                slot_word,
            } => self.tier_revalidate(hash, slot_addr, slot_word, out),
        }
    }

    /// Re-arms an expired lease with one 8-byte READ of the slot's atomic
    /// word ([`lookup::read_slot_word_is`], the routine a hinted lookup reads
    /// its slot with).  An exact match proves no publish/eviction CAS touched
    /// the slot, so the cached value is still current; any other outcome —
    /// changed word, a faulted READ — conservatively drops the entry and
    /// falls back to the remote path.  Unlike a hint, which names a slot by
    /// its place and re-translates it through the stripe directory, the tier
    /// keeps the *raw* `slot_addr` of admission (it also feeds the frequency
    /// counter at it) and deliberately relies on the `RECONCILE_POISON` a
    /// stripe cutover leaves in the old copy's words to read as changed.
    fn tier_revalidate(
        &mut self,
        hash: u64,
        slot_addr: RemoteAddr,
        slot_word: u64,
        out: &mut Vec<u8>,
    ) -> bool {
        let t0 = self.dm.now_ns();
        // Same ordering argument as the admission capture in `get_inner`:
        // any bump included here belongs to a CAS the READ below observes.
        let board_epoch = self.board.epoch(hash);
        if !lookup::read_slot_word_is(&self.dm, slot_addr, slot_word, &mut [0u8; 8]) {
            if let Some(tier) = self.tier.as_mut() {
                tier.remove(hash);
            }
            self.stats.record_local_stale_reject();
            return false;
        }
        let now = self.dm.now_ns();
        let Some(tier) = self.tier.as_mut() else {
            return false;
        };
        let renewal = tier.renew_and_serve(hash, now, board_epoch, out);
        self.dm.advance_ns(DittoConfig::CPU_LOCAL_HIT_NS);
        self.span_since(Phase::Revalidate, t0, 1);
        self.stats
            .record_local_revalidation(renewal.lease_ns, self.config.local_tier_lease_ns);
        self.stats.record_hit();
        self.tier_feed_frequency(hash, renewal.slot_addr, renewal.last_ts);
        true
    }

    /// Keeps the *remote* eviction metadata of a locally-served key fed, so
    /// remote eviction keeps seeing this client's interest and does not
    /// evict its hottest keys — neither by frequency nor by recency.  A
    /// local hit is one more access under the rule every access follows
    /// ([`Self::record_access`]), its `last_ts` judged against the timestamp
    /// the tier entry last saw or wrote instead of one just read; the entry
    /// then mirrors what the slot is left with.  (After a stripe cutover the
    /// entry's raw `slot_addr` names the retired copy until its lease runs
    /// out; what is written there meanwhile is lost, like the counter
    /// increments.)
    fn tier_feed_frequency(&mut self, hash: u64, slot_addr: RemoteAddr, last_ts: u64) {
        let (last_ts, _) = self.record_access(slot_addr, Some(last_ts));
        if let Some(tier) = self.tier.as_mut() {
            tier.note_last_ts(hash, last_ts);
        }
    }

    /// The FC increments this client buffers for the slot at `slot_addr`.
    fn buffered_accesses(&self, slot_addr: RemoteAddr) -> u64 {
        let freq_addr = SampleFriendlyHashTable::freq_addr(slot_addr);
        self.fc.as_ref().map_or(0, |fc| fc.pending_delta(freq_addr))
    }

    /// Drops the FC increments buffered for the slot at `slot_addr`, whose
    /// key one of this client's CASes just took out: they were the key's,
    /// and flushed they would count to the slot's next key.
    fn discard_accesses(&mut self, slot_addr: RemoteAddr) {
        if let Some(fc) = self.fc.as_mut() {
            fc.discard(SampleFriendlyHashTable::freq_addr(slot_addr));
        }
    }

    /// Posts one `RDMA_FAA` of each counter's buffered delta on `wq` — the
    /// one way an FC-cache increment reaches its `freq` word, whether a
    /// hinted `Get`'s ring carries the deferred flushes (`search_hinted`),
    /// two accesses' due flushes ring a doorbell of their own
    /// ([`Self::record_access`]) or [`DittoClient::flush`] drains the cache
    /// — and returns the work-request ids they took, in posting order.  Each
    /// goes to the counter's live home ([`Self::counter_home`]), not to a
    /// copy a cutover retired since the access was recorded.
    ///
    /// Every FAA goes unsignalled but, when the caller will `wait`, the
    /// last of each run of counters on one node: a queue pair completes in
    /// order, so that completion comes no earlier than any other of the
    /// node's in the ring, and a faulted or flushed FAA surfaces an error
    /// completion signalled or not.
    fn post_fc_faas(
        wq: &mut WorkQueue<'_, '_>,
        dir: &StripeDirectory,
        counters: impl IntoIterator<Item = FcFlush>,
        wait: bool,
    ) -> Range<u64> {
        let mut ids: Option<Range<u64>> = None;
        let mut counters = counters
            .into_iter()
            .map(|(addr, delta)| (Self::counter_home(dir, addr), delta))
            .peekable();
        while let Some((addr, delta)) = counters.next() {
            let run_ends = counters
                .peek()
                .is_none_or(|(next, _)| next.mn_id != addr.mn_id);
            let id = wq.post_faa(addr, delta, wait && run_ends);
            let ids = ids.get_or_insert(id..id);
            debug_assert_eq!(ids.end, id, "a ring's work-request ids are consecutive");
            ids.end = id + 1;
        }
        ids.unwrap_or_default()
    }

    /// Where the `freq` word recorded at `addr` lives now
    /// ([`StripeDirectory::home_of`]); `addr` itself while its stripe is
    /// mid-cutover or no stripe ever held it.
    fn counter_home(dir: &StripeDirectory, addr: RemoteAddr) -> RemoteAddr {
        dir.home_of(addr).unwrap_or(addr)
    }

    /// Records an access in the slot's metadata — the one rule every access
    /// follows, remote hit, local-tier hit or replace, once the access is
    /// known to be real: first the (client-side combined) frequency counter,
    /// then the stateless last-access timestamp.  `stored_ts` is the slot's
    /// `last_ts` when the caller knows it — both `Get` paths and the tier do;
    /// a hinted replace never reads the slot.  Returns the timestamp the slot
    /// is left with, and whether the count made an FC flush due.
    fn record_access(&mut self, slot_addr: RemoteAddr, stored_ts: Option<u64>) -> (u64, bool) {
        // Stateful information: the frequency counter, combined client-side.
        let freq_addr = SampleFriendlyHashTable::freq_addr(slot_addr);
        let flushed = match self.fc.as_mut() {
            // A due flush waits to ride the next hinted `Get`'s ring
            // (`search_hinted`); one due while another access's still wait
            // goes, with those, unsignalled on a doorbell of its own.  The
            // counters are advisory, so no operation waits a round trip for
            // them (a faulted one loses an increment; its error completion
            // is polled and dropped).
            Some(fc) => {
                let flushes = fc.record(freq_addr);
                let waiting = fc.defer(flushes);
                if !waiting.is_empty() {
                    let mut wq = self.dm.work_queue();
                    let counters = waiting.into_iter().chain(flushes);
                    Self::post_fc_faas(&mut wq, self.table.directory(), counters, false);
                    wq.ring();
                }
                for _ in 0..flushes.len() {
                    self.stats.record_fc_flush();
                }
                !flushes.is_empty()
            }
            None => {
                let _ = self.retry(|dm| dm.try_faa(freq_addr, 1));
                self.stats.record_fc_flush();
                false
            }
        };
        let now = self.dm.now_ns();
        // Stateless information: a single asynchronous WRITE — unsignalled,
        // but a message on the node's NIC all the same, so it is left out
        // while the stored timestamp is fresh enough for sampled LRU not to
        // tell the difference ([`crate::recency`]); `fresh` is then that
        // timestamp.
        let fresh = stored_ts.filter(|&ts| {
            let age = self.eviction_age.estimate(now);
            recency::last_ts_is_fresh(now, ts, age, LAST_TS_DIVISOR)
        });
        self.stats.record_ts_write(fresh.is_none());
        if fresh.is_none() {
            self.write_advisory(
                SampleFriendlyHashTable::last_ts_addr(slot_addr),
                &now.to_le_bytes(),
            );
            if !self.config.enable_sample_friendly_table {
                // Ablation: without the co-designed table the stateless
                // fields are scattered and need an additional write on the
                // data path.
                self.write_advisory(self.scratch.add(8), &now.to_le_bytes());
            }
        }
        (fresh.unwrap_or(now), flushed)
    }

    /// Runs the experts' update rules over the extension metadata of the
    /// accessed key (§4.4) — `slot` as the lookup decoded it, `ext` the
    /// words read with the object on a hit — and writes the result into the
    /// object at `object`: the one read on a hit, the *new* one on an
    /// update.  A no-op unless some expert keeps extension words.
    fn record_extension(
        &mut self,
        slot: &Slot,
        object: RemoteAddr,
        ext: Option<&[u64; EXT_WORDS]>,
        kind: AccessKind,
    ) {
        if !self.use_extension {
            return;
        }
        let now = self.dm.now_ns();
        let mut metadata = slot.metadata();
        metadata.record_access(&AccessContext::at(now));
        if let Some(ext) = ext {
            metadata.ext = *ext;
        }
        self.policy
            .update(&mut metadata, &AccessContext::at(now).with_kind(kind));
        let mut buf = [0u8; EXT_WORDS * 8];
        for (i, w) in metadata.ext.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        self.write_advisory(object.add(object::ext_offset()), &buf);
    }

    // ------------------------------------------------------------------
    // Regrets and adaptive weights
    // ------------------------------------------------------------------

    /// Refreshes the client's estimate of shard `shard`'s history counter
    /// when it is unknown or stale, and returns the estimate.  A READ of the
    /// counter refreshes it, and so does every history-id FAA this client's
    /// evictions send ([`Self::note_counter`]): the FAA fetches the global
    /// counter, other clients' increments included.  So a client that keeps
    /// evicting never READs it, and one that stops READs it once every
    /// [`HISTORY_COUNTER_REFRESH`] misses.  (Between refreshes a miss that
    /// meets an id at or past the estimate raises it past that id,
    /// [`Self::check_regret`].)
    fn refresh_counter_estimate(&mut self, shard: u64) -> u64 {
        let idx = shard as usize;
        if !self.counters_known[idx]
            || self.miss_count - self.last_refresh_miss_count[idx] >= HISTORY_COUNTER_REFRESH
        {
            self.stats.record_history_counter_read();
            // A faulted refresh keeps the stale estimate: adaptation lags a
            // little, nothing breaks (the next refresh interval retries).
            if let Ok(counter) = self.history.try_read_counter(&self.dm, shard) {
                self.note_counter(shard, counter);
            }
        }
        self.counter_estimates[idx]
    }

    /// Takes `counter`, just read or fetched, as shard `shard`'s counter as
    /// of this miss: one past the estimate is evidence that something was
    /// evicted since ([`EvictionAge::observe_evidence`]).
    fn note_counter(&mut self, shard: u64, counter: u64) {
        let idx = shard as usize;
        let estimate = self.counter_estimates[idx];
        if counter != estimate && EvictionHistory::at_or_after(estimate, counter) {
            self.eviction_age.observe_evidence(self.dm.now_ns());
        }
        self.counter_estimates[idx] = counter;
        self.counters_known[idx] = true;
        self.last_refresh_miss_count[idx] = self.miss_count;
    }

    /// Counts a miss on `hash` and pays its regret if the key's history
    /// entry is among `slots` and still valid: the experts that evicted it
    /// lose weight locally, and the penalty is buffered.  The regret that
    /// completes a batch posts the weight sync ([`DittoClient::sync_weights`]);
    /// the miss waits for no reply.
    fn check_regret(&mut self, slots: &[(RemoteAddr, Slot)], hash: u64) {
        self.miss_count += 1;
        let entry = slots
            .iter()
            .find(|(_, s)| s.atomic.is_history() && s.hash == hash);
        let Some(&(entry_addr, entry)) = entry else {
            return;
        };
        let id = entry.atomic.history_id();
        let shard = self.history.shard_of_id(id);
        let mut estimate = self.refresh_counter_estimate(shard);
        if EvictionHistory::at_or_after(estimate, id) {
            // Evicted since this client last knew the counter — by another
            // client — so the counter is past the id: the estimate takes
            // that much, and the regret counts, the newest there is.
            self.eviction_age.observe_evidence(self.dm.now_ns());
            estimate = EvictionHistory::id_from_counter(shard, id).1;
            self.counter_estimates[shard as usize] = estimate;
        }
        if !self.history.is_valid(estimate, id) {
            return;
        }
        // Global-scale position: the LeCaR discount is calibrated against
        // the full history length, not a shard's slice of it.
        let position = self.history.global_position(estimate, id);
        self.stats.record_regret();
        let word = self
            .carried_history_word(entry_addr)
            .unwrap_or(entry.history_word());
        if self.policy.regret(word, position) {
            self.sync_weights();
        }
    }

    /// Ships the buffered regret penalties, if any, to the controller: posts
    /// the RPC and returns, the reply left in flight for a later op to adopt
    /// ([`DittoClient::adopt_reply`]).  A reply still in flight is adopted
    /// first — waited for, if it has not arrived — so at most one sync is in
    /// flight and every due sync is still sent.
    fn sync_weights(&mut self) {
        let waited = self.adopt_reply(true);
        // Fixed buffers: a weight sync must not allocate either.
        let mut values = [0.0; MAX_EXPERTS];
        let Some(n) = self.policy.take_pending(&mut values) else {
            return;
        };
        if waited {
            self.stats.record_weight_sync_waited();
        }
        let mut request = [0u8; weight_wire::wire_len(MAX_EXPERTS)];
        let len = weight_wire::encode(&values[..n], &mut request);
        let mut reply = [0u8; weight_wire::wire_len(MAX_EXPERTS)];
        // The controller being unreachable only delays adaptation.
        if let Ok(posted) = self
            .dm
            .post_rpc(0, WEIGHT_SERVICE, &request[..len], &mut reply)
        {
            self.deferred.reply = Some((posted, reply));
            self.stats.record_weight_sync();
        }
    }

    // ------------------------------------------------------------------
    // Set path
    // ------------------------------------------------------------------

    fn set_inner(
        &mut self,
        key: &[u8],
        value: &[u8],
        memo: Option<MissMemo>,
        encoded: &mut Vec<u8>,
    ) -> CacheResult<()> {
        let hash = fnv1a64(key);
        let fp = fingerprint(hash);
        // The writer's own tier copy is stale the moment the Set is issued;
        // other clients' copies are invalidated by the board bump once the
        // publish CAS lands (end of this function).
        if let Some(tier) = self.tier.as_mut() {
            tier.remove(hash);
        }
        object::encode_into(key, value, self.use_extension, &[0; EXT_WORDS], encoded);
        let size_class = encoded.len() / 64;
        if size_class > 254 {
            return Err(CacheError::ObjectTooLarge {
                bytes: object::encoded_len(key.len(), value.len(), self.use_extension),
                max: 254 * 64,
            });
        }
        // Stripe-local placement: the value allocates on the node the
        // primary bucket's stripe is assigned to.  Outside a resize that is
        // the node holding the bucket (slot and object share a memory node
        // and its NIC); after an online add/drain it is where the stripe's
        // pending move takes it, so the object is already home when the
        // stripe arrives.
        let stripe = self.table.stripe_of_bucket(self.table.primary_bucket(hash));
        let mut preferred = self.table.directory().assigned_node(stripe);
        if self.dm.node_failed(preferred) {
            // Fail-stop degradation: the stripe's home node is dead, so a
            // striped pool places new objects on any surviving active node
            // instead of refusing writes (the bucket verbs still target the
            // dead node and degrade those keys to misses, but every key
            // whose buckets live elsewhere keeps full service).
            preferred = self
                .topology
                .active()
                .iter()
                .copied()
                .find(|&n| !self.dm.node_failed(n))
                .unwrap_or(preferred);
        }
        let obj_addr = self.alloc_with_eviction(preferred, encoded.len())?;
        let new_atomic = match AtomicField::try_for_object(fp, size_class as u8, obj_addr) {
            Ok(atomic) => atomic,
            Err(e) => {
                // The 48-bit slot pointer cannot name this address; release
                // the memory and surface the typed error.
                self.alloc.free(&self.dm, obj_addr, encoded.len());
                return Err(e);
            }
        };
        self.stats.record_set();
        self.journal_arm(obj_addr, encoded.len());
        if self.crash_fired(CrashPoint::AfterAlloc) {
            // Crash-consistency test hook: die with the allocation made and
            // the journal armed, before any object byte is written.
            return Ok(());
        }
        // Evict-ahead: under memory pressure the allocation above took the
        // spare the previous evicting `Set` left on the free list; with none
        // left, this `Set` replenishes it — by the victim CAS of the eviction
        // a previous fill parked, if any, and else by an eviction of its own
        // beside its lookup and publish.  A fill right after its key's miss,
        // and a `Set` that carries, park their own eviction instead, so each
        // frees exactly one victim.
        let starved = self.mem_pressure && !self.alloc.can_alloc_local(encoded.len());
        let fill = memo.as_ref().is_some_and(|memo| memo.hash == hash);
        let mut carried = self.take_parked(starved, hash);
        let parks = fill || carried.is_some();
        let mut ahead = starved
            .then(|| self.evict_begin(size_class as u8, Some((hash, carried.as_ref(), parks))));
        // A fill right after its key's miss goes by the buckets that miss
        // decoded, while they are still trusted.  Trusted, they were
        // translated under the version read here, which a one-round insert's
        // roll-forward judges staleness against.
        self.mig_token = self.table.directory().version();
        let mut memo_view = memo
            .filter(|_| fill)
            .and_then(|memo| self.memo_slots(memo, hash));
        let memo_slot = memo_view.as_ref().map(|slots| {
            let insert = self.choose_insert_slot(slots);
            insert.map(|(slot_addr, slot)| (slot_addr, slot.atomic.encode()))
        });
        // A hint is looked up only where the planner can take it: with no
        // eviction to ride and no extension words to update.
        let hint = (ahead.is_none() && !self.use_extension)
            .then(|| self.set_hint(hash))
            .flatten();
        let mut plan = Plan {
            object: Some((obj_addr, new_atomic.encode())),
            memo: memo_slot,
            hint: hint.map(|hint| (self.hinted_slot_addr(hash, hint), hint.word)),
            carried: carried.as_ref().map(|ev| ev.carry().without_resample()),
            fill,
            use_extension: self.use_extension,
            key: Some(hash),
            ..Plan::default()
        };
        // The front doors, one round trip each, no lookup, need the memo's
        // insert slot or a hint; without either the first round is the
        // lookup's.  A lost CAS falls into the lookup loop with the object
        // already written.
        let front = (plan.memo.is_some() || plan.hint.is_some()).then(|| {
            plan_round(&Plan {
                own: ahead.as_ref().and_then(Eviction::riding),
                carried: carried.as_ref().map(Eviction::carry),
                ..plan
            })
        });
        let mut stored = false;
        if let Some(front) = front.filter(|f| f.shape == Shape::Fill) {
            // The one-round fill returns once its round is rung; its
            // completions and its own eviction's are booked by the client's
            // next op (see `publish`).
            self.post_fill(hash, &front, encoded, new_atomic, ahead, carried);
            return Ok(());
        }
        if let Some(front) = front.filter(|f| f.shape == Shape::Hinted) {
            let (won, written) = self.publish_front(hash, &front, encoded, new_atomic);
            (stored, plan.written) = (won, written && !won);
            if plan.written && self.crash_fired(CrashPoint::AfterObjectWrite) {
                return Ok(());
            }
        }
        plan.hint = None;
        let attempts = if stored { 0 } else { MAX_RETRIES };
        for _ in 0..attempts {
            // Each attempt recomputes its addresses through the directory,
            // so the staleness token must move with it — keeping the
            // op-start token would judge every CAS after a mid-op cutover
            // stale even against the stripe's fresh live home.
            self.mig_token = self.table.directory().version();
            // The object WRITE is independent of the bucket READs, so the
            // first successful lookup round carries it in the same doorbell
            // batch; once it has landed, retries only re-read the buckets.
            // The first attempt of a fill the one-round door declined goes by
            // its memo — the WRITE, signalled, with the riding sample — and
            // any other, after a lost insert CAS say, reads the buckets.
            let was_written = plan.written;
            let mut evs = [ahead.as_mut(), carried.as_mut()];
            let looked_up = match memo_view.take() {
                Some(slots) => {
                    let round = plan_round(&Plan {
                        own: evs[0].as_deref().and_then(Eviction::riding),
                        ..plan
                    });
                    self.post_round(&round, encoded, &mut evs);
                    self.drain_round(&mut evs)
                        .map(|()| Lookup::new(slots, None))
                }
                None => self.search(hash, fp, plan, encoded, &mut evs, None),
            };
            let Ok(Lookup { slots, found, .. }) = looked_up else {
                // This attempt's lookup could not complete; the piggybacked
                // WRITE (if any) may not have landed, so the next attempt
                // re-carries it (re-posting the unpublished bytes is
                // idempotent).
                continue;
            };
            if !was_written {
                plan.written = true;
                if self.crash_fired(CrashPoint::AfterObjectWrite) {
                    // Crash-consistency test hook: die with the object bytes
                    // fully written but nothing referencing them yet.
                    return Ok(());
                }
            }
            let insert_slot = match found {
                Some(_) => None,
                None => self.choose_insert_slot(&slots),
            };
            // The eviction running ahead takes what the lookup overlapped
            // and issues its next verb — the victim CAS — unless it parks,
            // and a carried one that has picked its victim CAS, to fly
            // during the publish CAS.  Only beside an insert, though
            // (`round::Rule::AfterPublish`): the evictions of the two
            // publishes that displace an allocation resume once the `Set` is
            // through (see the crate docs).
            let beside_insert = insert_slot.is_some();
            let mut advancing = [
                ahead.as_mut().filter(|ev| !ev.park),
                carried.as_mut().filter(|ev| ev.is_picked()),
            ];
            if beside_insert {
                for ev in advancing.iter_mut().flatten() {
                    self.evict_advance(ev, true);
                }
            }
            // Each publish attempt — whichever of the three CAS shapes it
            // takes — is one `Publish` span (detail = 1 on the attempt that
            // installed the pointer).
            let publish_start = self.dm.now_ns();
            let won = match (found, insert_slot) {
                (Some((slot_addr, slot)), _) => self.replace_existing(slot_addr, &slot, new_atomic),
                (None, Some((slot_addr, observed))) => {
                    self.install_new(slot_addr, &observed, new_atomic, hash)
                }
                (None, None) => self.bucket_evict_and_insert(&slots, new_atomic, hash),
            };
            self.span_since(Phase::Publish, publish_start, won as u32);
            if won {
                stored = true;
                break;
            }
            if beside_insert {
                // The victim CAS that flew beside the lost insert is settled
                // before the next attempt, which may displace.
                for ev in advancing.iter_mut().flatten() {
                    self.evict_advance(ev, false);
                }
            }
        }
        if self.crashed {
            // An armed crash point fired inside a publish: the client is
            // dead mid-protocol.  Skip every cleanup step — no journal
            // clear, no frees, no invalidation — leaving exactly the
            // debris `recover_crashed_client` must be able to fix.  The
            // coherence bump still happens: the publish CAS may have landed
            // before the crash, and a stale tier copy surviving a recovered
            // Set would be exactly the resurrection bug the chaos tests
            // hunt for.
            self.bump_board(hash);
            return Ok(());
        }
        // The rest of the evictions is serial: normally just the poll of a
        // victim CAS — all of it after a displacing publish.  The own
        // eviction picks before a carried CAS goes out, as beside an insert,
        // and one that parks stays with the client for the next starved
        // `Set`, its sample landed and not decoded, as a one-round fill's
        // own parks: a later op decodes it.
        if let Some(ev) = ahead.as_mut().filter(|ev| !ev.park) {
            self.evict_advance(ev, false);
        }
        // A carried eviction whose victim CAS flew beside the insert is,
        // like a one-round fill's, booked once a later poll meets it, so that
        // a fill frees its carried victim at the same op whichever door it
        // took; one still to pick is picked for by a later op, as after a
        // one-round fill.  Any other is finished before a sweep below polls:
        // what it has out is met only by polls that know it.
        let pends = carried
            .as_ref()
            .is_some_and(|ev| stored && ((fill && ev.in_flight > 0) || ev.is_sampling()));
        if let Some(ev) = carried.as_mut().filter(|_| !pends) {
            self.finish_carried(ev);
        }
        // What a Set that could not publish did instead: invalidated the
        // key (`Ok`), or nothing it can vouch for (`Err`).
        let mut outcome = Ok(());
        if !stored {
            // Persistent CAS interference: the request is dropped.  An older
            // value of the key left installed would make the write
            // *completed-then-unobservable* — readers would keep hitting the
            // stale version — so the entry is invalidated instead: the key
            // misses until re-filled, indistinguishable from an eviction.
            // A sweep that cannot do that reports the Set dropped.
            outcome = Err(CacheError::SetDropped { key_absent: false });
            for _ in 0..MAX_RETRIES {
                let found = self.search(hash, fp, Plan::default(), &[], &mut [None, None], None);
                // The invalidation sweep cannot see the table.
                let Ok(Lookup { found, .. }) = found else {
                    break;
                };
                let Some((slot_addr, slot)) = found else {
                    outcome = Err(CacheError::SetDropped { key_absent: true });
                    break;
                };
                if slot.atomic.encode() == new_atomic.encode() {
                    // A judged-failed CAS actually carried our value after
                    // all: the set is installed, nothing to invalidate.
                    stored = true;
                    outcome = Ok(());
                    break;
                }
                if self.slot_cas(slot_addr, slot.atomic.encode(), 0) {
                    // Bump before free (see `lookup`'s module docs): nobody's
                    // hint may outlive the blocks it names.
                    self.hints.forget(hash);
                    self.bump_board(hash);
                    self.discard_accesses(slot_addr);
                    self.alloc.free(
                        &self.dm,
                        slot.atomic.object_addr(),
                        slot.atomic.object_bytes() as usize,
                    );
                    outcome = Ok(());
                    break;
                }
            }
        }
        if !stored {
            self.stats.record_set_dropped();
            // Release the dropped request's object so nothing leaks.
            self.alloc.free(&self.dm, obj_addr, encoded.len());
        }
        // One bump covers every mutation shape this Set may have performed
        // on its own key's slot — replace, fresh install, bucket
        // evict-and-insert, or the failed-update invalidation sweep — and
        // is sequenced after the last CAS but before the operation returns,
        // so a reader starting after this Set completes always sees it.  (An
        // insert bumped once already, the moment its CAS landed, for the
        // miss memos it stales; a replace, before it freed what it
        // displaced.)  A Set that mutated nothing bumps anyway;
        // the only cost is a spurious refetch by tier holders of this key.
        self.bump_board(hash);
        match carried.filter(|_| pends) {
            Some(mut ev) => {
                // The journal stays armed, naming the carried victim, until
                // the fill is booked.
                self.journal_set_fill(ev.is_picked().then(|| ev.victim_object()));
                self.send_resample(&mut ev);
                self.deferred.fill(hash, None, Some(ev));
            }
            None => self.journal_clear(),
        }
        if let Some(mut ev) = ahead.filter(|ev| ev.park) {
            // Parked as a one-round fill's own parks: its first sample landed
            // and not decoded, its candidates to be scored with the FC counts
            // this client buffers now.  A later op decodes it — the op it
            // would after a one-round fill ([`Eviction::landed`]).  Last, so
            // that a sample no lookup round carried, which goes out now, is
            // the last verb of the op.
            self.defer_sample(&mut ev);
            self.park(ev);
        }
        outcome
    }

    // ------------------------------------------------------------------
    // Eviction
    // ------------------------------------------------------------------

    /// Allocates `size` bytes for an object, preferably on node `preferred`,
    /// evicting to make room: [`CacheError::OutOfMemory`] when none could be
    /// found after [`MAX_EVICTION_ATTEMPTS`] attempts.
    fn alloc_with_eviction(&mut self, preferred: u16, size: usize) -> CacheResult<RemoteAddr> {
        let min_blocks = (size as u64).div_ceil(64).min(u8::MAX as u64) as u8;
        let mut evictions_won = 0u64;
        for attempt in 0..MAX_EVICTION_ATTEMPTS {
            // Under memory pressure a segment RPC is doomed: serve from the
            // local free lists (stripe-local node first, then any active
            // node), evicting to refill them.  Every 8th attempt still
            // probes the memory nodes in case capacity reappeared
            // (e.g. after another client released segments).
            if self.mem_pressure && attempt % 8 != 7 {
                if let Some(addr) = self.alloc.alloc_local_on(&self.dm, preferred, size) {
                    return Ok(addr);
                }
                if self.evict_once_for(min_blocks) {
                    evictions_won += 1;
                    // Winning evictions is not the same as making progress:
                    // scattered small victims may never coalesce into this
                    // ask client-side, while node-side the fragments from
                    // every client merge.  Periodically try the exact-size
                    // ask even though eviction still succeeds.
                    if attempt % 8 == 3 && attempt > 8 {
                        if let Some(addr) = self.backstop_alloc(preferred, size) {
                            return Ok(addr);
                        }
                    }
                } else if let Some(addr) = self.backstop_alloc(preferred, size) {
                    return Ok(addr);
                } else {
                    self.mem_pressure = false;
                }
                continue;
            }
            match self.alloc.alloc_on(&self.dm, preferred, size) {
                Ok(addr) => return Ok(addr),
                Err(DmError::OutOfMemory { .. }) => {
                    self.mem_pressure = true;
                    if self.evict_once_for(min_blocks) {
                        evictions_won += 1;
                    } else if let Some(addr) = self.backstop_alloc(preferred, size) {
                        return Ok(addr);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(CacheError::OutOfMemory {
            bytes: size,
            attempts: MAX_EVICTION_ATTEMPTS,
            evictions_won,
            free_blocks: self.alloc.free_blocks(),
            live_blocks: self.alloc.live_blocks(),
            segments_fetched: self.alloc.segments_fetched(),
        })
    }

    /// Last-resort allocation once eviction has made no progress (losing
    /// every victim race, or an empty sample): ask the nodes for exactly
    /// the needed bytes — ranges released by *other* clients may hold this
    /// object even though no whole segment is free.  If that fails too,
    /// dump this client's own parked ranges back to the node — fragments
    /// from many clients coalesce there into spans no single client could
    /// assemble — and ask once more.
    fn backstop_alloc(&mut self, preferred: u16, size: usize) -> Option<RemoteAddr> {
        self.alloc
            .alloc_exact_on(&self.dm, preferred, size)
            .or_else(|| {
                if self.alloc.release_excess(&self.dm, 0) == 0 {
                    return None;
                }
                self.alloc.alloc_exact_on(&self.dm, preferred, size)
            })
    }

    // ------------------------------------------------------------------
    // Online bucket-range migration (pump + relocation)
    // ------------------------------------------------------------------

    /// Drives the bucket-range migration: takes up to `max_stripes` planned
    /// stripe moves, relocating every resident object of the stripe that is
    /// not on the destination node there before its commit carries the
    /// bucket range over in one reconcile pass, then — once the plan is
    /// drained — sweeps objects that allocator fallback left on inactive
    /// nodes.  Safe to call from any client at any time;
    /// `DittoCache::pump_migration` is the run-to-completion wrapper.
    pub fn pump_migration(&mut self, max_stripes: usize) -> MigrationProgress {
        self.maybe_refresh_topology();
        self.settle_before(OpKind::Pump);
        let engine = Arc::clone(&self.engine);
        engine.maybe_replan();
        let mut progress = MigrationProgress::default();
        let mut budget = max_stripes;
        while budget > 0 {
            let Some(job) = engine.next_job() else { break };
            budget -= 1;
            if !engine.begin(&job) {
                continue; // stale job (superseded plan)
            }
            self.relocate_stripe_objects(job.stripe, job.dst, true, &mut progress);
            match engine.commit(&self.dm, &job) {
                Ok(moved) => progress.stripes_moved += u64::from(moved),
                Err(_) => {
                    // The destination cannot host the stripe yet, or its
                    // reconcile gave up (a dead node): put the job back so
                    // the plan stays visibly incomplete, and stop this pump
                    // rather than spin on it.
                    engine.requeue_job(job);
                    break;
                }
            }
            self.maybe_refresh_topology();
        }
        if engine.pending_jobs() == 0 && self.has_inactive_residue() {
            // Allocator fallback may have placed objects on nodes that are
            // now inactive even though their buckets never moved; sweep the
            // whole table so a drained node really reaches zero bytes.
            for stripe in 0..self.table.num_stripes() as u64 {
                let home = self.table.directory().assigned_node(stripe);
                self.relocate_stripe_objects(stripe, home, false, &mut progress);
            }
        }
        progress.jobs_remaining = engine.pending_jobs() as u64;
        progress
    }

    /// Forensic scan: total object bytes on `mn_id` still referenced by a
    /// live slot anywhere in the table (block-rounded, matching the
    /// resident-bytes gauge).  Comparing this against
    /// [`MemoryPool::resident_object_bytes`] splits a non-zero residual
    /// into *reachable* bytes (a sweep missed them; scan == gauge) versus
    /// *orphaned* bytes (a slot update lost the only reference; scan <
    /// gauge).  Debug/test aid — scans every bucket, not a hot-path call.
    ///
    /// [`MemoryPool::resident_object_bytes`]: ditto_dm::MemoryPool::resident_object_bytes
    pub fn referenced_object_bytes_on(&mut self, mn_id: u16) -> u64 {
        self.settle_before(OpKind::Scan);
        let refs = self.referenced_objects();
        refs.get(mn_id as usize).map_or(0, |node_refs| {
            node_refs.iter().map(|&(_, bytes)| bytes).sum()
        })
    }

    /// Forensic scan of the whole table: per node, the sorted (offset,
    /// resident bytes) of every allocation a slot references.
    fn referenced_objects(&mut self) -> Vec<Vec<(u64, u64)>> {
        let mut refs = vec![Vec::new(); self.dm.pool().num_nodes() as usize];
        let mut walk = self.table.walk(0..self.table.num_stripes() as u64);
        while let Some((_, slot)) = walk.next_slot(&self.table, &self.dm) {
            if !slot.atomic.is_object() {
                continue;
            }
            let addr = slot.atomic.object_addr();
            let resident = Self::resident_bytes_for(slot.atomic.object_bytes() as usize);
            if let Some(node_refs) = refs.get_mut(addr.mn_id as usize) {
                node_refs.push((addr.offset, resident));
            }
        }
        for node_refs in &mut refs {
            node_refs.sort_unstable();
        }
        refs
    }

    /// Forensic scan: every slot's frequency-counter address and the value
    /// its `freq` word holds now, bucket by bucket.  With
    /// [`DittoClient::fc_cache`]'s `pending_delta` it shows what a drain
    /// owes each counter and what landed.  Debug/test aid, like
    /// [`DittoClient::referenced_object_bytes_on`].
    pub fn freq_words(&mut self) -> Vec<(RemoteAddr, u64)> {
        let mut words = Vec::new();
        let mut walk = self.table.walk(0..self.table.num_stripes() as u64);
        while let Some((slot_addr, slot)) = walk.next_slot(&self.table, &self.dm) {
            words.push((SampleFriendlyHashTable::freq_addr(slot_addr), slot.freq));
        }
        words
    }

    /// The client's FC cache (§4.2.2), `None` when `fc_cache_mb` is 0.
    pub fn fc_cache(&self) -> Option<&FcCache> {
        self.fc.as_ref()
    }

    /// Whether any inactive node still holds resident object bytes.
    fn has_inactive_residue(&self) -> bool {
        let stats = self.dm.pool().stats();
        (0..self.dm.pool().num_nodes())
            .any(|mn| !self.topology.is_active(mn) && stats.resident_bytes_on(mn) > 0)
    }

    /// Scans one stripe's buckets and re-places resident objects on
    /// `home`: when the stripe is `moving` there, every object not already
    /// on it — on the node the stripe leaves, and on any other an allocation
    /// under memory pressure fell back to — so the stripe arrives with its
    /// objects beside their slots; otherwise only those on inactive nodes.
    fn relocate_stripe_objects(
        &mut self,
        stripe: u64,
        home: u16,
        moving: bool,
        progress: &mut MigrationProgress,
    ) {
        let mut bytes = Vec::new();
        let mut walk = self.table.walk(stripe..stripe + 1);
        while let Some((slot_addr, slot)) = walk.next_slot(&self.table, &self.dm) {
            if !slot.atomic.is_object() {
                continue;
            }
            let node = slot.atomic.object_addr().mn_id;
            if node == home || (!moving && self.topology.is_active(node)) {
                continue;
            }
            let len = slot.atomic.object_bytes() as usize;
            if bytes.len() < len {
                bytes.resize(len, 0);
            }
            // A faulted relocation READ skips this object for now; it
            // stays where it is and a later pump retries it.
            if self
                .dm
                .try_read_into(slot.atomic.object_addr(), &mut bytes[..len])
                .is_err()
            {
                continue;
            }
            let t0 = self.dm.now_ns();
            let moved = self.relocate_object_bytes(slot_addr, &slot, &bytes[..len], home);
            self.span_since(Phase::Relocate, t0, moved as u32);
            progress.objects_relocated += moved as u64;
        }
    }

    /// Re-places one object whose encoded bytes are already in `bytes`:
    /// allocates on an active node (evicting under memory pressure), writes
    /// the bytes, swings the slot pointer with the migration-aware CAS and
    /// releases the old blocks.
    fn relocate_object_bytes(
        &mut self,
        slot_addr: RemoteAddr,
        slot: &Slot,
        bytes: &[u8],
        home: u16,
    ) -> bool {
        let old_addr = slot.atomic.object_addr();
        let len = bytes.len();
        let Some(new_addr) = self.alloc_for_relocation(home, old_addr.mn_id, len) else {
            return false;
        };
        let new_atomic =
            match AtomicField::try_for_object(slot.atomic.fp, slot.atomic.size_class, new_addr) {
                Ok(atomic) => atomic,
                Err(_) => {
                    self.alloc.free(&self.dm, new_addr, len);
                    return false;
                }
            };
        if self.retry(|dm| dm.try_write(new_addr, bytes)).is_err() {
            // Could not land the object copy; back out and leave the
            // original in place for a later pump.
            self.alloc.free(&self.dm, new_addr, len);
            return false;
        }
        if !self.slot_cas(slot_addr, slot.atomic.encode(), new_atomic.encode()) {
            // The slot changed under us (eviction/update raced); back out.
            self.alloc.free(&self.dm, new_addr, len);
            return false;
        }
        // No coherence-board bump: the key→value mapping is unchanged, so a
        // tier copy stays byte-correct.  The slot *word* did change, which a
        // later lease revalidation conservatively treats as stale — a
        // refetch, never a wrong value.  The hint follows the word.
        self.hint_cas_won(slot.hash, slot_addr, new_atomic.encode());
        self.alloc.free(&self.dm, old_addr, len);
        self.dm
            .pool()
            .stats()
            .record_migrated_object(Self::resident_bytes_for(len));
        true
    }

    /// Allocation for an object relocated from node `from` to `home`.  An
    /// object on an active node is served where it is, so it moves to
    /// `home` alone and only into room `home` has: no eviction is worth
    /// it.  One leaving an inactive node must go somewhere: `home` first,
    /// then any active node, evicting to make room when none has it
    /// (capacity genuinely shrinks after a drain).  Returns `None` when
    /// space cannot be found — the object then stays put until a later
    /// pump.
    fn alloc_for_relocation(&mut self, home: u16, from: u16, len: usize) -> Option<RemoteAddr> {
        let min_blocks = (len as u64).div_ceil(64).min(u8::MAX as u64) as u8;
        if self.topology.is_active(from) {
            return self.alloc.alloc_at(&self.dm, home, len).ok();
        }
        for _ in 0..64 {
            match self.alloc.alloc_on(&self.dm, home, len) {
                Ok(addr) => return Some(addr),
                Err(DmError::OutOfMemory { .. }) => {
                    if self.evict_once_for(min_blocks) {
                        continue;
                    }
                    // Eviction cannot help (or keeps losing races); fall
                    // back to exact-size asks so relocation still drains
                    // nodes when other clients released the needed room.
                    return self.backstop_alloc(home, len);
                }
                Err(_) => return None,
            }
        }
        None
    }

    /// Gathers the candidates' metadata for [`AdaptivePolicy::pick_victim`]
    /// as the candidates carry it: each `freq` word with this client's
    /// buffered FC increments folded in where the candidate was gathered.
    fn select_victim(&mut self, candidates: &[(RemoteAddr, Slot)]) -> Pick {
        let now = self.dm.now_ns();
        let mut metadata: InlineVec<Metadata, CANDIDATES_CAP> = InlineVec::new();
        for (_, slot) in candidates {
            metadata.push(self.candidate_metadata(slot));
        }
        let (idx, history_word, chosen) =
            self.policy
                .pick_victim(&metadata, now, &mut self.eviction_age, &mut self.rng);
        Pick {
            idx,
            history_word,
            chosen,
            scored: metadata[idx],
        }
    }

    /// A candidate's metadata: the slot's words, its `freq` counting the
    /// increments this client's FC cache held for it when it was gathered
    /// (see [`crate::fc_cache`]), and under an extension expert the
    /// object's extension words.
    fn candidate_metadata(&self, slot: &Slot) -> Metadata {
        let mut metadata = slot.metadata();
        if self.use_extension {
            // Advanced algorithms keep their extension metadata with the
            // object; fetch the header (§4.4: extra READs on eviction).
            let addr = slot.atomic.object_addr().add(object::ext_offset());
            let mut bytes = [0u8; EXT_WORDS * 8];
            // A faulted extension READ scores the candidate on its slot
            // metadata alone (ext words stay zero) — advisory data only.
            if self.dm.try_read_into(addr, &mut bytes).is_ok() {
                for (i, chunk) in bytes.chunks_exact(8).enumerate().take(EXT_WORDS) {
                    metadata.ext[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte word"));
                }
            }
        }
        metadata
    }
}

impl Drop for DittoClient {
    /// A pending fill is booked before its client leaves — unless the client
    /// crashed, which leaves it to [`DittoClient::recover_crashed_client`].
    /// A parked eviction leaves with its client, its history id burnt.
    fn drop(&mut self) {
        self.settle_before(OpKind::Drop);
    }
}

impl ditto_workloads::CacheBackend for DittoClient {
    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        DittoClient::get(self, key)
    }

    fn set(&mut self, key: &[u8], value: &[u8]) {
        DittoClient::set(self, key, value)
    }

    fn miss_penalty(&mut self, us: u64) {
        self.dm.sleep_us(us);
    }

    fn backend_name(&self) -> &str {
        if self.policy.is_adaptive() {
            "ditto"
        } else {
            "ditto-single"
        }
    }
    fn finish(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::DittoClient;
    use crate::cache::DittoCache;
    use crate::config::DittoConfig;
    use crate::hashtable::SampleFriendlyHashTable;
    use crate::history::expert_bitmap;
    use crate::slot::{AtomicField, Slot};
    use ditto_dm::{DmConfig, RemoteAddr};

    fn small_cache(capacity: u64) -> DittoCache {
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), DmConfig::default())
            .unwrap()
    }

    #[test]
    fn get_on_empty_cache_misses() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        assert_eq!(client.get(b"nope"), None);
        assert_eq!(cache.stats().snapshot().misses, 1);
    }

    #[test]
    fn set_then_get_roundtrip() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        client.set(b"user1", b"value-1");
        assert_eq!(client.get(b"user1").as_deref(), Some(&b"value-1"[..]));
        let snap = cache.stats().snapshot();
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.sets, 1);
    }

    #[test]
    fn get_into_reuses_the_caller_buffer() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        client.set(b"a", b"first-value");
        client.set(b"b", b"second");
        let mut buf = Vec::new();
        assert!(client.get_into(b"a", &mut buf));
        assert_eq!(buf, b"first-value");
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        assert!(client.get_into(b"b", &mut buf));
        assert_eq!(buf, b"second");
        assert_eq!(buf.capacity(), cap, "smaller value must reuse the buffer");
        assert_eq!(buf.as_ptr(), ptr);
        assert!(!client.get_into(b"missing", &mut buf));
    }

    #[test]
    fn the_tier_admits_a_key_once_this_client_has_read_it_repeatedly() {
        use crate::local_tier::FREQ_ADMIT_THRESHOLD;
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(1_000).with_local_tier(64, 1_000_000),
            DmConfig::default(),
        )
        .unwrap();
        let mut writer = cache.client();
        writer.set(b"once", b"cold");
        writer.set(b"hot", b"warm");
        let mut reader = cache.client();
        // Returns whether one Get of `key` was served from the tier.
        let mut local_get = |key: &[u8], value: &[u8]| {
            let before = cache.stats().snapshot().local_hits;
            assert_eq!(reader.get(key).as_deref(), Some(value));
            cache.stats().snapshot().local_hits > before
        };
        // A key read once stays remote: its next read still goes out.
        assert!(!local_get(b"once", b"cold"));
        assert!(!local_get(b"once", b"cold"));
        // A key read the threshold's number of times is served locally.
        for _ in 0..FREQ_ADMIT_THRESHOLD {
            assert!(!local_get(b"hot", b"warm"));
        }
        assert!(local_get(b"hot", b"warm"));
    }

    #[test]
    fn update_replaces_value() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        client.set(b"k", b"old");
        client.set(b"k", b"newer-value");
        assert_eq!(client.get(b"k").as_deref(), Some(&b"newer-value"[..]));
    }

    #[test]
    fn values_are_isolated_per_key() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        for i in 0..100u64 {
            client.set(format!("key{i}").as_bytes(), format!("value{i}").as_bytes());
        }
        for i in 0..100u64 {
            assert_eq!(
                client.get(format!("key{i}").as_bytes()),
                Some(format!("value{i}").into_bytes()),
                "key{i}"
            );
        }
    }

    #[test]
    fn other_clients_see_written_objects() {
        let cache = small_cache(1_000);
        let mut writer = cache.client();
        let mut reader = cache.client();
        writer.set(b"shared", b"payload");
        assert_eq!(reader.get(b"shared").as_deref(), Some(&b"payload"[..]));
    }

    #[test]
    fn eviction_keeps_cache_bounded_and_serving() {
        let cache = small_cache(300);
        let mut client = cache.client();
        for i in 0..2_000u64 {
            client.set(format!("key{i}").as_bytes(), &[1u8; 200]);
        }
        let snap = cache.stats().snapshot();
        assert!(
            snap.evictions + snap.bucket_evictions > 1_000,
            "evictions: {snap:?}"
        );
        // Recently inserted keys are still present.
        let mut recent_hits = 0;
        for i in 1_990..2_000u64 {
            if client.get(format!("key{i}").as_bytes()).is_some() {
                recent_hits += 1;
            }
        }
        assert!(
            recent_hits >= 5,
            "only {recent_hits}/10 recent keys survive"
        );
    }

    #[test]
    fn history_entries_and_regrets_are_collected() {
        let cache = small_cache(200);
        let mut client = cache.client();
        // Fill far beyond capacity so evictions populate the history.
        for i in 0..1_500u64 {
            client.set(format!("key{i}").as_bytes(), &[0u8; 200]);
        }
        // Touch evicted keys again: misses that hit the history are regrets.
        for i in 0..400u64 {
            let _ = client.get(format!("key{i}").as_bytes());
        }
        let snap = cache.stats().snapshot();
        assert!(snap.history_inserts > 0);
        assert!(snap.regrets > 0, "expected regrets, got {snap:?}");
    }

    #[test]
    fn only_a_client_that_stops_evicting_reads_the_history_counter() {
        let (cache, mut filler) = regretting_cache(usize::MAX);
        let mut reader = cache.client();
        let stats = cache.stats();
        // The filler misses on keys it evicted a little earlier and fills
        // them again: every fill evicts, and its history-id FAA refreshes
        // the counter estimate its next regret checks against.
        let (reads, regrets) = (stats.history_counter_reads(), stats.snapshot().regrets);
        let mut i = 0u64;
        while stats.snapshot().regrets - regrets < 2 * super::HISTORY_COUNTER_REFRESH {
            let key = format!("key{}", 1_500 + i % 500);
            if filler.get(key.as_bytes()).is_none() {
                filler.set(key.as_bytes(), &[0u8; 200]);
            }
            i += 1;
            assert!(i < 100_000, "too few regrets");
        }
        assert_eq!(stats.history_counter_reads(), reads);
        // A reader that never evicts refreshes by READ, at the cadence: on
        // a miss that finds its key's history entry once the estimate has
        // gone unrefreshed for that many misses.
        let reads = stats.history_counter_reads();
        for i in 0..2_000u64 {
            let _ = reader.get(format!("key{i}").as_bytes());
        }
        let misses = reader.miss_count;
        assert!(
            misses > 4 * super::HISTORY_COUNTER_REFRESH,
            "{misses} misses"
        );
        let reads = stats.history_counter_reads() - reads;
        assert!(
            (2..=misses / super::HISTORY_COUNTER_REFRESH + 1).contains(&reads),
            "{reads} counter READs over {misses} misses"
        );
    }

    #[test]
    fn a_counter_past_the_estimate_or_a_key_evicted_since_restarts_the_eviction_age() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        let age = |client: &DittoClient| client.eviction_age.estimate(client.dm.now_ns());
        // A miss whose key's history entry holds `id`.
        let regret = |client: &mut DittoClient, id: u64| {
            let slot = Slot {
                hash: id,
                atomic: AtomicField::for_history(7, id),
                ..Slot::empty()
            };
            client.check_regret(&[(RemoteAddr::default(), slot)], id);
        };
        client.eviction_age.observe_miss();
        client.dm.advance_ns(10_000);
        assert_eq!(age(&client), 0, "a miss, and no evidence yet");
        // Another client evicted five: the first regret READs the counter
        // and finds it past the estimate of 0.
        let _ = client.dm.faa(client.history.counter_addr(0), 5);
        regret(&mut client, 0);
        assert_eq!(cache.stats().history_counter_reads(), 1);
        client.dm.advance_ns(1_000);
        assert_eq!(age(&client), 1_000);
        // A miss on a key evicted before that READ is no new evidence…
        regret(&mut client, 2);
        client.dm.advance_ns(1_000);
        assert_eq!(age(&client), 2_000);
        // …one on a key evicted since — the id after the counter it read —
        // is, and raises the estimate past that id: the regret counts.
        regret(&mut client, 5);
        assert_eq!(age(&client), 0);
        assert_eq!(client.counter_estimates[0], 6);
        assert_eq!(cache.stats().snapshot().regrets, 3);
        assert_eq!(cache.stats().history_counter_reads(), 1);
    }

    #[test]
    fn weights_adapt_after_many_regrets() {
        let cache = small_cache(200);
        let mut client = cache.client();
        for i in 0..1_500u64 {
            client.set(format!("key{i}").as_bytes(), &[0u8; 200]);
        }
        for round in 0..5 {
            for i in 0..400u64 {
                let _ = client.get(format!("key{}", round * 400 + i).as_bytes());
            }
        }
        client.flush();
        let weights = cache.global_weights();
        assert_eq!(weights.len(), 2);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(cache.stats().snapshot().weight_syncs > 0);
    }

    #[test]
    fn a_sync_batch_of_one_syncs_on_every_regret() {
        // The paper's ablation without lazy weight updates (fig24), over
        // every key: the recently evicted ones regret densely.
        let (cache, mut client) = regretting_cache(1);
        for i in 0..1_500u64 {
            let _ = client.get(format!("key{i}").as_bytes());
        }
        let snap = cache.stats().snapshot();
        assert!(snap.regrets > 0, "{snap:?}");
        assert_eq!(snap.weight_syncs, snap.regrets);
        // Regrets on back-to-back misses come due inside one round trip.
        assert!(cache.stats().weight_syncs_waited() > 0, "{snap:?}");
    }

    /// A cache whose clients sync their weights every `batch` regrets,
    /// filled far beyond its 200 objects so that misses regret.
    fn regretting_cache(batch: usize) -> (DittoCache, DittoClient) {
        let mut config = DittoConfig::with_capacity(200);
        config.weight_sync_batch = batch;
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let mut client = cache.client();
        for i in 0..1_500u64 {
            client.set(format!("key{i}").as_bytes(), &[0u8; 200]);
        }
        (cache, client)
    }

    fn bits(weights: &[f64]) -> Vec<u64> {
        weights.iter().map(|w| w.to_bits()).collect()
    }

    /// A regret that blames expert `expert`, drawn with probability ½.
    fn regret_on(client: &mut DittoClient, expert: usize, position: u64) {
        let word = expert_bitmap::with_odds(expert_bitmap::with_expert(0, expert), 0.5);
        client.policy.regret(word, position);
    }

    #[test]
    fn a_miss_whose_regret_syncs_waits_for_no_reply() {
        // The same replay with a sync on every regret and with none due: up
        // to the first regret both make the same draws, so that miss differs
        // only by the sync it posts.
        let first_regret = |batch| {
            let (cache, mut client) = regretting_cache(batch);
            for i in 0..400u64 {
                let (t0, regrets) = (client.dm.now_ns(), cache.stats().snapshot().regrets);
                let _ = client.get(format!("key{i}").as_bytes());
                if cache.stats().snapshot().regrets > regrets {
                    return (client.dm.now_ns() - t0, cache, client);
                }
            }
            panic!("no regret in 400 misses");
        };
        let (unsynced, idle, _) = first_regret(usize::MAX);
        let (synced, cache, client) = first_regret(1);
        let extra = synced - unsynced;
        assert!(
            extra < DmConfig::RPC_LATENCY_NS,
            "{synced} vs {unsynced} ns"
        );
        assert_eq!(
            extra,
            DmConfig::DOORBELL_LATENCY_NS + DmConfig::VERB_ISSUE_NS
        );
        assert_eq!(cache.stats().snapshot().weight_syncs, 1);
        assert!(
            client.deferred.reply.is_some(),
            "the reply is still in flight"
        );
        // The controller applied the shipped penalty as the sync was posted.
        assert_eq!(idle.global_weights(), vec![0.5, 0.5]);
        assert_ne!(cache.global_weights(), vec![0.5, 0.5]);
        assert_eq!(bits(&cache.global_weights()), bits(client.policy.weights()));
    }

    #[test]
    fn the_first_op_to_begin_once_the_reply_arrived_adopts_it() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        regret_on(&mut client, 0, 0);
        client.sync_weights();
        let arrival = client.deferred.reply.expect("posted").0.arrival_ns;
        // Two ops that begin before the arrival leave the reply in flight.
        let _ = client.get(b"absent");
        assert!(client.dm.now_ns() < arrival);
        client.dm.advance_ns(arrival - 1 - client.dm.now_ns());
        client.set(b"k", b"v");
        assert!(
            client.deferred.reply.is_some(),
            "adopted before its arrival"
        );
        // The next op begins after it, and adopts it.
        let _ = client.get(b"k");
        assert!(client.deferred.reply.is_none());
        // One that begins exactly at the arrival adopts it too.
        regret_on(&mut client, 1, 0);
        client.sync_weights();
        let arrival = client.deferred.reply.expect("posted").0.arrival_ns;
        client.dm.advance_ns(arrival - client.dm.now_ns());
        client.set(b"k", b"w");
        assert!(client.deferred.reply.is_none());
        assert_eq!(cache.stats().snapshot().weight_syncs, 2);
        assert_eq!(cache.stats().weight_syncs_waited(), 0);
        assert_eq!(bits(&cache.global_weights()), bits(client.policy.weights()));
    }

    #[test]
    fn an_adopted_reply_keeps_the_penalties_buffered_since_its_post() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        regret_on(&mut client, 0, 0);
        client.sync_weights();
        let global = cache.global_weights();
        // A regret paid while the reply flies, on the other expert.
        regret_on(&mut client, 1, 3);
        let mut expected = client.policy.clone();
        expected.adopt_weights(&global);
        let expected = expected.weights().to_vec();
        let arrival = client.deferred.reply.expect("posted").0.arrival_ns;
        client.dm.advance_ns(arrival - client.dm.now_ns());
        let _ = client.get(b"absent");
        assert!(client.deferred.reply.is_none());
        assert_eq!(bits(client.policy.weights()), bits(&expected));
        assert_ne!(bits(client.policy.weights()), bits(&global));
        // The next sync ships that penalty: no regret is lost globally.
        client.flush();
        assert_eq!(bits(&cache.global_weights()), bits(&expected));
        assert_eq!(cache.stats().snapshot().weight_syncs, 2);
    }

    #[test]
    fn non_adaptive_single_algorithm_works() {
        let config = DittoConfig::single_algorithm(300, "lfu");
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let mut client = cache.client();
        for i in 0..1_000u64 {
            client.set(format!("key{i}").as_bytes(), &[0u8; 200]);
        }
        let snap = cache.stats().snapshot();
        assert!(snap.evictions + snap.bucket_evictions > 0);
        assert_eq!(snap.history_inserts, 0, "no history without adaptivity");
    }

    #[test]
    fn extension_algorithms_roundtrip() {
        let config = DittoConfig::with_capacity(300).with_experts(vec!["gdsf", "lruk"]);
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let mut client = cache.client();
        for i in 0..600u64 {
            client.set(format!("key{i}").as_bytes(), &[0u8; 200]);
        }
        for i in 500..600u64 {
            let _ = client.get(format!("key{i}").as_bytes());
        }
        assert!(cache.stats().snapshot().hits > 0);
    }

    #[test]
    fn a_hit_rewrites_last_ts_only_once_it_is_stale() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        // The first operation: with no miss and no eviction seen, the
        // eviction-age estimate is the time since here.
        client.set(b"hot", b"x");
        client.dm().advance_ns(1_000_000);
        // WRITEs one hit sends.
        let hit = |client: &mut super::DittoClient| {
            let before = cache.pool().stats().node_snapshots()[0].writes;
            assert!(client.get(b"hot").is_some());
            cache.pool().stats().node_snapshots()[0].writes - before
        };
        // The insert's timestamp is a millisecond old, far past τ = 1/16 of
        // that: the hit refreshes it.
        assert_eq!(hit(&mut client), 1);
        // Hits within τ ≈ 63 µs of the refresh leave it alone…
        for _ in 0..5 {
            assert_eq!(hit(&mut client), 0);
        }
        // …and the first hit past τ sends exactly one WRITE, the next none.
        client.dm().advance_ns(70_000);
        assert_eq!(hit(&mut client), 1);
        assert_eq!(hit(&mut client), 0);
        let stats = cache.stats();
        assert_eq!((stats.ts_writes_sent(), stats.ts_writes_skipped()), (2, 6));
        // A `Set` never reads the slot and always writes.
        client.set(b"hot", b"y");
        assert_eq!(stats.ts_writes_sent(), 3);
        // A miss is evidence of evictions at an age this client has not
        // seen: until it sees one, every hit writes.
        assert!(client.get(b"absent").is_none());
        assert_eq!(hit(&mut client), 1);
        assert_eq!(hit(&mut client), 1);
    }

    #[test]
    fn every_hit_and_replace_books_one_last_ts_decision_local_hits_too() {
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(1_000).with_local_tier(64, 1_000_000),
            DmConfig::default(),
        )
        .unwrap();
        let mut client = cache.client();
        let keys: [&[u8]; 3] = [b"a", b"b", b"c"];
        for key in keys {
            client.set(key, b"v0");
        }
        let stats = cache.stats();
        let decisions = || stats.ts_writes_sent() + stats.ts_writes_skipped();
        let (before, booked) = (stats.snapshot(), decisions());
        // Every `Get` hits, remotely or in the tier; every `Set` replaces.
        for round in 0..300u64 {
            for key in keys {
                assert_eq!(client.get(key).as_deref(), Some(&b"v0"[..]));
            }
            if round % 50 == 49 {
                client.set(keys[0], b"v0");
            }
            client.dm().advance_ns(2_000);
        }
        let run = stats.snapshot();
        let (hits, sets) = (run.hits - before.hits, run.sets - before.sets);
        assert!(run.local_hits > before.local_hits, "the tier served no hit");
        assert!(stats.ts_writes_sent() > 0 && stats.ts_writes_skipped() > 0);
        assert_eq!(decisions() - booked, hits + sets);
    }

    /// At `fc_threshold = 1` every hit's count is a due flush, which waits
    /// for the client's next hinted `Get`: the first `Get` sends no FAA, the
    /// second posts it unsignalled behind its slot READ and object READ, on
    /// their one doorbell.  The writer's `Get`s are both hinted; a hintless
    /// reader's first rings the two bucket READs and reads the object
    /// synchronously, which rings no doorbell, and its second is hinted.
    #[test]
    fn a_due_flush_rides_the_next_hinted_gets_doorbell() {
        let mut config = DittoConfig::with_capacity(1_000);
        config.fc_threshold = 1;
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let mut writer = cache.client();
        writer.set(b"hot", b"x");
        let mut reader = cache.client();
        for (client, first_reads) in [(&mut writer, 2), (&mut reader, 3)] {
            cache.pool().reset_stats();
            assert!(client.get(b"hot").is_some());
            let stats = cache.pool().stats();
            let node = stats.node_snapshots()[0];
            assert_eq!((node.reads, node.faa), (first_reads, 0));
            assert_eq!((stats.doorbells(), stats.batched_verbs()), (1, 2));
            cache.pool().reset_stats();
            assert!(client.get(b"hot").is_some());
            let node = stats.node_snapshots()[0];
            assert_eq!((node.reads, node.faa), (2, 1));
            assert_eq!((stats.doorbells(), stats.batched_verbs()), (1, 3));
            assert_eq!(stats.unsignalled_wqes(), 1, "the FAA goes unsignalled");
        }
    }

    /// At most one access's due flushes wait.  A hintless reader's two
    /// `Get`s of two keys post no READ a flush could ride: the first defers
    /// its key's FAA, and the second posts it and its own on a doorbell of
    /// their own, unsignalled, beside its bucket READs' doorbell.
    #[test]
    fn a_second_due_flush_posts_the_waiting_one_and_its_own_on_their_own_doorbell() {
        let mut config = DittoConfig::with_capacity(1_000);
        config.fc_threshold = 1;
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let mut writer = cache.client();
        writer.set(b"a", b"x");
        writer.set(b"b", b"y");
        let mut reader = cache.client();
        cache.pool().reset_stats();
        assert!(reader.get(b"a").is_some());
        let stats = cache.pool().stats();
        assert_eq!(stats.node_snapshots()[0].faa, 0);
        assert_eq!(reader.fc_cache().unwrap().buffered_increments(), 1);
        cache.pool().reset_stats();
        assert!(reader.get(b"b").is_some());
        assert_eq!(stats.node_snapshots()[0].faa, 2);
        assert_eq!((stats.doorbells(), stats.batched_verbs()), (2, 4));
        assert_eq!(stats.unsignalled_wqes(), 2);
        assert!(reader.fc_cache().unwrap().is_empty(), "nothing waits");
    }

    /// An access is counted once its key check passed.  Key `a`'s slot is
    /// left pointing at a copy of key `b`'s object, so every attempt of
    /// `get(a)` reads another key's object: the `Get` misses and, at
    /// `fc_threshold = 1`, where every counted access makes its FAA due,
    /// neither sends nor queues one.  `get(b)` queues its one, which the
    /// `flush` sends.
    #[test]
    fn a_hit_that_fails_its_key_check_counts_no_access() {
        let config = DittoConfig {
            fc_threshold: 1,
            ..DittoConfig::with_capacity(1_000)
        };
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let mut client = cache.client();
        client.set(b"a", b"x");
        client.set(b"b", b"y");
        let table = &cache.table;
        let object_of = |key: &[u8]| {
            let hash = crate::hash::fnv1a64(key);
            [table.primary_bucket(hash), table.secondary_bucket(hash)]
                .into_iter()
                .flat_map(|bucket| table.bucket_slots(&client.dm, bucket))
                .find(|(_, slot)| slot.atomic.is_object() && slot.hash == hash)
                .map(|(_, slot)| slot.atomic)
                .expect("the key is cached")
        };
        let (a, b) = (object_of(b"a"), object_of(b"b"));
        assert_eq!(a.object_bytes(), b.object_bytes());
        let node = cache.pool().node(0).unwrap();
        let b_bytes = node
            .read(b.object_addr().offset, b.object_bytes() as usize)
            .unwrap();
        node.write(a.object_addr().offset, &b_bytes).unwrap();
        let faas = || cache.pool().stats().node_snapshots()[0].faa;
        let before = faas();
        assert_eq!(client.get(b"a"), None);
        assert_eq!(faas() - before, 0, "a failed key check sent an FAA");
        assert!(client.fc_cache().unwrap().is_empty(), "and queued one");
        assert_eq!(client.get(b"b").as_deref(), Some(&b"y"[..]));
        client.flush();
        assert_eq!(faas() - before, 1);
    }

    #[test]
    fn pipelined_set_with_large_objects_waits_for_the_right_completion() {
        // A Set's unsignalled object WRITE is queued ahead of the primary
        // bucket READ on the same node; with objects larger than a bucket
        // the READ's completion lands *after* the secondary's (per-node
        // in-order queue pairs), so the lookup must match wr_ids instead of
        // assuming arrival order.  Exercised on a striped pool with large
        // values: every one of them must read back.
        let config = DittoConfig::with_capacity(500).with_object_size(1_024);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(4))
                .unwrap();
        let mut client = cache.client();
        let value = vec![7u8; 1_024];
        for i in 0..200u64 {
            client.set(format!("big{i}").as_bytes(), &value);
        }
        for i in 0..200u64 {
            assert_eq!(
                client.get(format!("big{i}").as_bytes()).as_deref(),
                Some(&value[..]),
                "big{i}"
            );
        }
        let snap = cache.stats().snapshot();
        assert_eq!((snap.hits, snap.misses), (200, 0));
    }

    #[test]
    fn set_batches_object_write_with_bucket_reads() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        // Warm the allocator so the measured Set performs no segment RPC.
        client.set(b"warm", b"x");
        cache.pool().reset_stats();
        client.set(b"probe", &[1u8; 200]);
        let stats = cache.pool().stats();
        // One doorbell carried the WRITE + both bucket READs.
        assert_eq!(stats.doorbells(), 1);
        assert_eq!(stats.batched_verbs(), 3);
        assert_eq!(stats.largest_batch(), 3);
    }

    #[test]
    fn fc_cache_reduces_faa_traffic() {
        let cache = small_cache(1_000);
        let mut client = cache.client();
        client.set(b"hot", b"x");
        cache.pool().reset_stats();
        for _ in 0..100 {
            let _ = client.get(b"hot");
        }
        let faa = cache.pool().stats().node_snapshots()[0].faa;
        assert!(faa <= 12, "FC cache should batch FAAs, saw {faa}");
    }

    #[test]
    fn striped_cache_serves_roundtrips_across_all_nodes() {
        let config = DittoConfig::with_capacity(1_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(4))
                .unwrap();
        let mut client = cache.client();
        for i in 0..400u64 {
            client.set(format!("key{i}").as_bytes(), format!("value{i}").as_bytes());
        }
        for i in 0..400u64 {
            assert_eq!(
                client.get(format!("key{i}").as_bytes()),
                Some(format!("value{i}").into_bytes()),
                "key{i}"
            );
        }
        // The hash table and objects are striped: every node serves verbs.
        let snaps = cache.pool().stats().node_snapshots();
        assert_eq!(snaps.len(), 4);
        for (mn, snap) in snaps.iter().enumerate() {
            assert!(
                snap.messages > 100,
                "node {mn} served only {} messages",
                snap.messages
            );
        }
    }

    #[test]
    fn striped_lookup_fans_out_doorbells_across_nodes() {
        let config = DittoConfig::with_capacity(1_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(4))
                .unwrap();
        let mut client = cache.client();
        for i in 0..64u64 {
            let _ = client.get(&i.to_le_bytes());
        }
        // Some key's primary and secondary buckets live on different nodes,
        // so its lookup batch rang one doorbell per node.
        assert!(
            cache.pool().stats().largest_fanout() >= 2,
            "expected at least one multi-node lookup batch"
        );
        let snaps = cache.pool().stats().node_snapshots();
        assert!(snaps.iter().filter(|s| s.doorbells > 0).count() >= 2);
    }

    #[test]
    fn striped_objects_live_on_their_buckets_node() {
        let config = DittoConfig::with_capacity(1_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(4))
                .unwrap();
        let mut client = cache.client();
        // With ample memory, every object's value must land on the memory
        // node that owns its primary bucket (stripe-local allocation).
        for i in 0..200u64 {
            let key = format!("key{i}");
            client.set(key.as_bytes(), b"v");
            let hash = crate::hash::fnv1a64(key.as_bytes());
            let table = cache.table.clone();
            let bucket_node = table.node_of_bucket(table.primary_bucket(hash));
            let slots = table.bucket_slots(&client.dm, table.primary_bucket(hash));
            let fp = crate::hash::fingerprint(hash);
            if let Some((_, slot)) = slots
                .iter()
                .find(|(_, s)| s.atomic.is_object() && s.atomic.fp == fp && s.hash == hash)
            {
                assert_eq!(
                    slot.atomic.object_addr().mn_id,
                    bucket_node,
                    "object of {key} not stripe-local"
                );
            }
        }
    }

    #[test]
    fn online_add_and_drain_rebalance_allocations() {
        let config = DittoConfig::with_capacity(2_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(2))
                .unwrap();
        let mut client = cache.client();
        for i in 0..100u64 {
            client.set(format!("warm{i}").as_bytes(), b"resident");
        }
        // Grow the pool online; clients pick the change up via the epoch.
        let new_node = cache.pool().add_node().unwrap();
        assert_eq!(new_node, 2);
        assert_eq!(cache.pool().resize_epoch(), 1);
        for i in 0..100u64 {
            client.set(format!("post-add{i}").as_bytes(), b"fresh");
        }
        // The topology remaps stripe hints over the grown active set, so a
        // share of the new objects lands on the added node.
        let table = cache.table.clone();
        let mut on_new_node = 0;
        for i in 0..100u64 {
            let key = format!("post-add{i}");
            let hash = crate::hash::fnv1a64(key.as_bytes());
            let fp = crate::hash::fingerprint(hash);
            for bucket in [table.primary_bucket(hash), table.secondary_bucket(hash)] {
                let slots = table.bucket_slots(&client.dm, bucket);
                if let Some((_, slot)) = slots
                    .iter()
                    .find(|(_, s)| s.atomic.is_object() && s.atomic.fp == fp && s.hash == hash)
                {
                    if slot.atomic.object_addr().mn_id == new_node {
                        on_new_node += 1;
                    }
                }
            }
        }
        assert!(
            on_new_node > 10,
            "only {on_new_node}/100 post-add objects reached the new node"
        );
        // Drain node 1: resident data keeps hitting, new placements avoid it.
        cache.pool().drain_node(1).unwrap();
        assert_eq!(cache.pool().resize_epoch(), 2);
        cache.pool().reset_stats();
        for i in 0..100u64 {
            client.set(format!("post-drain{i}").as_bytes(), b"fresh2");
        }
        for i in 0..100u64 {
            assert_eq!(
                client.get(format!("warm{i}").as_bytes()).as_deref(),
                Some(&b"resident"[..]),
                "resident key warm{i} lost after drain"
            );
        }
        // All 100 post-drain objects were allocated off the drained node.
        let table = cache.table.clone();
        for i in 0..100u64 {
            let key = format!("post-drain{i}");
            let hash = crate::hash::fnv1a64(key.as_bytes());
            let fp = crate::hash::fingerprint(hash);
            for bucket in [table.primary_bucket(hash), table.secondary_bucket(hash)] {
                let slots = table.bucket_slots(&client.dm, bucket);
                if let Some((_, slot)) = slots
                    .iter()
                    .find(|(_, s)| s.atomic.is_object() && s.atomic.fp == fp && s.hash == hash)
                {
                    assert_ne!(
                        slot.atomic.object_addr().mn_id,
                        1,
                        "{key} was placed on the drained node"
                    );
                }
            }
        }
    }

    #[test]
    fn pump_migration_moves_stripes_and_drains_nodes_to_empty() {
        let config = DittoConfig::with_capacity(2_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(2))
                .unwrap();
        let mut client = cache.client();
        for i in 0..400u64 {
            client.set(format!("key{i}").as_bytes(), format!("value{i}").as_bytes());
        }
        assert!(
            cache.pool().resident_object_bytes(1) > 0,
            "node 1 should hold objects"
        );

        // Drain node 1 and pump the migration to completion.
        cache.pool().drain_node(1).unwrap();
        let progress = cache.pump_migration();
        assert!(
            progress.stripes_moved > 0,
            "half the stripes must move: {progress:?}"
        );
        assert!(progress.objects_relocated > 0);
        assert_eq!(progress.jobs_remaining, 0);
        assert!(cache.migration().is_idle());

        // The drained node holds no buckets and no resident object bytes.
        let table = cache.table.clone();
        for bucket in 0..table.num_buckets() {
            assert_ne!(
                table.node_of_bucket(bucket),
                1,
                "bucket {bucket} still on node 1"
            );
        }
        assert_eq!(cache.pool().resident_object_bytes(1), 0);
        assert!(cache.pool().stats().stripe_cutovers() > 0);
        assert!(cache.pool().stats().migrated_bytes() > 0);

        // Every value survived the migration byte-identically, and the
        // emptied node can be decommissioned outright.
        cache.pool().remove_node(1).unwrap();
        cache.pool().reset_stats();
        for i in 0..400u64 {
            assert_eq!(
                client.get(format!("key{i}").as_bytes()),
                Some(format!("value{i}").into_bytes()),
                "key{i} lost in migration"
            );
        }
        // Lookup READ load has left the removed node entirely.
        assert_eq!(cache.pool().stats().node_snapshots()[1].messages, 0);
    }

    #[test]
    fn pump_migration_spreads_existing_buckets_onto_added_nodes() {
        let config = DittoConfig::with_capacity(2_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(2))
                .unwrap();
        let mut client = cache.client();
        for i in 0..200u64 {
            client.set(format!("key{i}").as_bytes(), b"resident");
        }
        let new_node = cache.pool().add_node().unwrap();
        let progress = cache.pump_migration();
        assert!(progress.stripes_moved > 0);
        // The joiner now owns a fair share of the bucket ranges, so lookup
        // READ load spreads onto it without waiting for churn.
        let table = cache.table.clone();
        let on_new = (0..table.num_buckets())
            .filter(|&b| table.node_of_bucket(b) == new_node)
            .count() as u64;
        assert!(
            on_new * 4 >= table.num_buckets(),
            "only {on_new}/{} buckets moved to the joiner",
            table.num_buckets()
        );
        for i in 0..200u64 {
            assert_eq!(
                client.get(format!("key{i}").as_bytes()).as_deref(),
                Some(&b"resident"[..]),
                "key{i} lost while rebalancing onto the joiner"
            );
        }
    }

    #[test]
    fn a_get_on_a_drained_node_serves_in_place_and_the_pump_moves_it() {
        let config = DittoConfig::with_capacity(2_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(2))
                .unwrap();
        let mut client = cache.client();
        let table = cache.table.clone();
        // The node `key`'s object lives on.
        let home = |client: &DittoClient, key: &str| {
            let hash = crate::hash::fnv1a64(key.as_bytes());
            [table.primary_bucket(hash), table.secondary_bucket(hash)]
                .into_iter()
                .flat_map(|b| table.bucket_slots(&client.dm, b))
                .find(|(_, s)| s.atomic.is_object() && s.hash == hash)
                .map(|(_, s)| s.atomic.object_addr().mn_id)
                .expect("the key is resident")
        };
        let key = (0..500u64)
            .map(|i| format!("key{i}"))
            .find(|k| {
                client.set(k.as_bytes(), b"hot-value");
                home(&client, k) == 1
            })
            .expect("some key must land on node 1");
        cache.pool().drain_node(1).unwrap();
        // Gets serve the object where it is and move nothing.
        for _ in 0..3 {
            assert_eq!(
                client.get(key.as_bytes()).as_deref(),
                Some(&b"hot-value"[..])
            );
        }
        assert_eq!(home(&client, &key), 1);
        assert_eq!(cache.pool().stats().migrated_objects(), 0);
        // Objects leave a drained node through the pump alone.
        cache.pump_migration();
        assert_eq!(cache.pool().resident_object_bytes(1), 0);
        assert_ne!(home(&client, &key), 1);
        assert_eq!(
            client.get(key.as_bytes()).as_deref(),
            Some(&b"hot-value"[..])
        );
    }

    /// A drain of node 1, and its first job, begun.
    fn drain_job(cache: &DittoCache) -> ditto_dm::MoveJob {
        cache.pool().drain_node(1).unwrap();
        let engine = cache.migration();
        engine.maybe_replan();
        let job = engine.next_job().expect("drain must plan moves");
        assert!(engine.begin(&job));
        job
    }

    /// Sets `job`'s forwarding marker the way its commit sets it immediately
    /// before the first chunk READ.
    fn mark_moving(cache: &DittoCache, job: &ditto_dm::MoveJob) {
        let dir = cache.migration().directory();
        let dst = cache
            .pool()
            .reserve_on(job.dst, dir.stripe_bytes())
            .unwrap();
        dir.begin_move(job.stripe, dst);
    }

    /// Runs the commit of a `job` [`mark_moving`] marked: it sets its own
    /// marker before it READs anything.
    fn commit_marked(cache: &DittoCache, client: &DittoClient, job: &ditto_dm::MoveJob) {
        cache.migration().directory().reopen(job.stripe);
        assert!(cache.migration().commit(client.dm(), job).unwrap());
    }

    /// The first key `prefix{i}` whose primary and secondary buckets both
    /// satisfy `wanted`.
    fn key_with_buckets(
        table: &SampleFriendlyHashTable,
        prefix: &str,
        wanted: impl Fn(u64) -> bool,
    ) -> String {
        (0..)
            .map(|i| format!("{prefix}{i}"))
            .find(|k| {
                let hash = crate::hash::fnv1a64(k.as_bytes());
                wanted(table.primary_bucket(hash)) && wanted(table.secondary_bucket(hash))
            })
            .unwrap()
    }

    /// Every object slot of `stripe` carries its own key's hash.
    fn assert_records_match_their_keys(
        table: &SampleFriendlyHashTable,
        client: &DittoClient,
        stripe: u64,
    ) {
        let mut walk = table.walk(stripe..stripe + 1);
        while let Some((slot_addr, slot)) = walk.next_slot(table, &client.dm) {
            if !slot.atomic.is_object() {
                continue;
            }
            let bytes = client.dm.read(
                slot.atomic.object_addr(),
                slot.atomic.object_bytes() as usize,
            );
            let object = crate::object::view(&bytes).expect("a live object decodes");
            assert_eq!(
                crate::hash::fnv1a64(object.key),
                slot.hash,
                "slot {slot_addr:?}"
            );
        }
    }

    #[test]
    fn sets_during_the_moving_window_survive_the_cutover() {
        let config = DittoConfig::with_capacity(2_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(2))
                .unwrap();
        let mut client = cache.client();
        for i in 0..300u64 {
            let key = format!("window{i}");
            client.set(key.as_bytes(), b"old");
        }
        let job = drain_job(&cache);
        mark_moving(&cache, &job);

        // Update the keys while the stripe is moving: plain CASes on the
        // source, which the commit's reconcile carries — no stripe lock.
        let table = cache.table.clone();
        let mut in_window = Vec::new();
        for i in 0..300u64 {
            let key = format!("window{i}");
            let hash = crate::hash::fnv1a64(key.as_bytes());
            client.set(key.as_bytes(), key.as_bytes());
            if table.stripe_of_bucket(table.primary_bucket(hash)) == job.stripe {
                in_window.push(key);
            }
        }
        assert!(
            !in_window.is_empty(),
            "some key must map to the moving stripe"
        );
        commit_marked(&cache, &client, &job);

        // After the cutover the writes are visible at the new home.
        for key in &in_window {
            assert_eq!(
                client.get(key.as_bytes()),
                Some(key.clone().into_bytes()),
                "{key} lost across the moving window"
            );
        }
        // Finish the drain cleanly for good measure.
        cache.pump_migration();
        assert_eq!(cache.pool().resident_object_bytes(1), 0);
    }

    #[test]
    fn a_fill_a_reconcile_may_have_read_never_reads_as_another_key() {
        use crate::history::EvictionHistory;
        use crate::slot::AtomicField;
        let config = DittoConfig::with_capacity(2_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(2))
                .unwrap();
        let mut client = cache.client();
        for i in 0..300u64 {
            client.set(format!("resident{i}").as_bytes(), b"resident");
        }
        let job = drain_job(&cache);
        let table = &cache.table;
        let in_stripe = |b: u64| table.stripe_of_bucket(b) == job.stripe;
        // Three fills whose every candidate slot is in the moving stripe, on
        // disjoint bucket pairs: one finds an empty slot, one only history
        // slots, one a full bucket pair it must evict from.
        let buckets = |k: &str| {
            let hash = crate::hash::fnv1a64(k.as_bytes());
            [table.primary_bucket(hash), table.secondary_bucket(hash)]
        };
        let evicting = key_with_buckets(table, "evicting", in_stripe);
        let taken = buckets(&evicting);
        let into_history =
            key_with_buckets(table, "history", |b| in_stripe(b) && !taken.contains(&b));
        let taken = [taken, buckets(&into_history)].concat();
        let into_empty = key_with_buckets(table, "empty", |b| in_stripe(b) && !taken.contains(&b));

        // Objects fill the evicting key's buckets…
        for bucket in buckets(&evicting) {
            let mut packers = (0..)
                .map(|i| format!("pack{i}"))
                .filter(|k| table.primary_bucket(crate::hash::fnv1a64(k.as_bytes())) == bucket);
            while table
                .bucket_slots(&client.dm, bucket)
                .iter()
                .any(|(_, s)| !s.atomic.is_object())
            {
                let packer = packers.next().unwrap();
                client.set(packer.as_bytes(), b"packed");
            }
        }
        // …and history entries of other keys every empty slot of the
        // history key's.
        let mut ghosts = Vec::new();
        for bucket in buckets(&into_history) {
            for (slot_addr, slot) in table.bucket_slots(&client.dm, bucket) {
                if slot.atomic.is_empty() {
                    let ghost = crate::hash::fnv1a64(format!("ghost{}", ghosts.len()).as_bytes());
                    let id = EvictionHistory::pack_id(0, ghosts.len() as u64 + 1);
                    let word = AtomicField::for_history(crate::hash::fingerprint(ghost), id);
                    client.dm.write(
                        SampleFriendlyHashTable::hash_addr(slot_addr),
                        &ghost.to_le_bytes(),
                    );
                    client.dm.write(slot_addr, &word.encode().to_le_bytes());
                    ghosts.push(ghost);
                }
            }
        }
        assert!(!ghosts.is_empty());

        mark_moving(&cache, &job);
        let (dropped, evictions) = (
            cache.stats().sets_dropped(),
            cache.stats().snapshot().bucket_evictions,
        );
        for key in [&into_empty, &into_history, &evicting] {
            client.set(key.as_bytes(), key.as_bytes());
        }
        assert_eq!(cache.stats().snapshot().bucket_evictions, evictions + 1);
        commit_marked(&cache, &client, &job);

        for key in [&into_empty, &into_history, &evicting] {
            assert_eq!(client.get(key.as_bytes()), Some(key.clone().into_bytes()));
        }
        assert_eq!(cache.stats().sets_dropped(), dropped);
        // Every record of the moved stripe carries its own key's hash, and
        // every history entry left its evicted key's.
        assert_records_match_their_keys(table, &client, job.stripe);
        let mut history_left = 0;
        let mut walk = table.walk(job.stripe..job.stripe + 1);
        while let Some((slot_addr, slot)) = walk.next_slot(table, &client.dm) {
            if slot.atomic.is_history() {
                assert!(ghosts.contains(&slot.hash), "slot {slot_addr:?}");
                history_left += 1;
            }
        }
        assert_eq!(
            history_left,
            ghosts.len() - 1,
            "the fill took one history slot"
        );
        for mn in 0..cache.pool().num_nodes() {
            assert_eq!(
                cache.pool().resident_object_bytes(mn),
                client.referenced_object_bytes_on(mn),
                "node {mn}"
            );
        }
    }

    #[test]
    fn a_fill_carried_without_its_metadata_rolls_forward_to_the_new_home() {
        let config = DittoConfig::with_capacity(2_000);
        let cache =
            DittoCache::with_dedicated_pool(config, DmConfig::default().with_memory_nodes(2))
                .unwrap();
        let mut client = cache.client();
        let job = drain_job(&cache);
        let table = &cache.table;
        let key = key_with_buckets(table, "carried", |b| {
            table.stripe_of_bucket(b) == job.stripe
        });
        let hash = crate::hash::fnv1a64(key.as_bytes());
        let token = table.directory().version();
        client.set(key.as_bytes(), b"carried");
        let (slot_addr, slot) = table
            .bucket_slots(&client.dm, table.primary_bucket(hash))
            .into_iter()
            .find(|(_, s)| s.hash == hash)
            .expect("an empty primary bucket takes the fill");
        // The reconcile READ the record between the publish CAS and its
        // metadata write: it carries the word beside the empty slot's hash.
        client.dm.write(
            SampleFriendlyHashTable::hash_addr(slot_addr),
            &0u64.to_le_bytes(),
        );
        assert!(cache.migration().commit(client.dm(), &job).unwrap());
        assert_eq!(client.get(key.as_bytes()), None);

        // The publish, settling after the flip, lands its metadata again
        // where the word went.
        client.settle_rekey(slot_addr, slot.atomic.encode(), hash, token);
        assert_eq!(client.get(key.as_bytes()).as_deref(), Some(&b"carried"[..]));
        assert_records_match_their_keys(table, &client, job.stripe);
    }

    #[test]
    fn a_commit_whose_destination_died_leaves_the_stripe_writable() {
        use ditto_dm::{FaultPlan, MigrationState};
        let plan = FaultPlan::seeded(1).with_node_fail_stop(1, 0);
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(2_000),
            DmConfig::default()
                .with_memory_nodes(3)
                .with_fault_plan(plan),
        )
        .unwrap();
        let mut client = cache.client();
        let engine = cache.migration();
        cache.pool().drain_node(2).unwrap();
        engine.maybe_replan();
        let job = std::iter::from_fn(|| engine.next_job())
            .find(|job| job.dst == 1)
            .expect("some stripe must be bound for node 1");
        let table = &cache.table;
        let keys: Vec<String> = (0..4)
            .map(|i| {
                key_with_buckets(table, &format!("stranded{i}-"), |b| {
                    table.stripe_of_bucket(b) == job.stripe
                })
            })
            .collect();
        let (before, after) = keys.split_at(2);
        for key in before {
            client.set(key.as_bytes(), key.as_bytes());
        }
        let dropped = cache.stats().sets_dropped();

        // The reconcile's first WRITE to the dead node fails after its sweep
        // poisoned the source: the commit puts the words back and re-opens
        // the stripe at its source.
        assert!(engine.commit(client.dm(), &job).is_err());
        assert_eq!(engine.directory().state(job.stripe), MigrationState::Idle);
        // Fills into it publish as before the commit, and nothing was lost.
        for key in after {
            client.set(key.as_bytes(), key.as_bytes());
        }
        for key in &keys {
            assert_eq!(
                client.get(key.as_bytes()),
                Some(key.clone().into_bytes()),
                "{key}"
            );
        }
        assert_eq!(cache.stats().sets_dropped(), dropped);
        assert_records_match_their_keys(table, &client, job.stripe);
    }

    #[test]
    fn oversized_objects_yield_typed_errors() {
        use crate::error::CacheError;
        let cache = small_cache(1_000);
        let mut client = cache.client();
        let too_big = vec![0u8; 254 * 64 + 1];
        assert!(matches!(
            client.try_set(b"big", &too_big),
            Err(CacheError::ObjectTooLarge { .. })
        ));
        // A rejected set stores nothing and is not counted as a set.
        assert_eq!(cache.stats().snapshot().sets, 0);
        // The cache keeps serving afterwards.
        client.set(b"ok", b"fine");
        assert_eq!(client.get(b"ok").as_deref(), Some(&b"fine"[..]));
        assert_eq!(cache.stats().snapshot().sets, 1);
    }

    #[test]
    fn a_set_given_up_is_counted() {
        use crate::error::CacheError;
        use ditto_dm::FaultPlan;
        let plan = FaultPlan::seeded(1).with_verb_fail_ppm(1_000_000);
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(1_000),
            DmConfig::default().with_fault_plan(plan),
        )
        .unwrap();
        let injector = cache.pool().fault_injector();
        injector.set_armed(false);
        let mut client = cache.client();
        client.set(b"key", b"old");
        assert_eq!(cache.stats().sets_dropped(), 0);
        // Every verb fails: no lookup of the Set's completes, and none of the
        // invalidation sweep that follows.  It says so, and is counted.
        injector.set_armed(true);
        assert_eq!(
            client.try_set(b"key", b"new"),
            Err(CacheError::SetDropped { key_absent: false })
        );
        injector.set_armed(false);
        assert_eq!(cache.stats().sets_dropped(), 1);
        assert_eq!(client.get(b"key").as_deref(), Some(&b"old"[..]));
        // Its object went back to the allocator.
        assert_eq!(
            cache.pool().resident_object_bytes(0),
            client.referenced_object_bytes_on(0)
        );
        cache.stats().reset();
        assert_eq!(cache.stats().sets_dropped(), 1, "a lifetime counter");
    }

    /// A leaving client's drain, on a pool of `nodes`: `keys` counters
    /// buffered with none due (the threshold is out of reach) go out as one
    /// FAA each, [`MAX_WQES`] to a ring, and every `freq` word gains
    /// exactly what the FC cache held for it.  Sorted by address, the
    /// counters come grouped by node, so at most `nodes − 1` rings straddle
    /// two nodes and ring a second doorbell.
    fn assert_the_drain_rings_doorbells_not_round_trips(nodes: u16, keys: u64) {
        use ditto_dm::wqe::MAX_WQES;
        let config = DittoConfig {
            fc_threshold: u64::MAX,
            ..DittoConfig::with_capacity(2 * keys)
        };
        let dm = DmConfig::default().with_memory_nodes(nodes);
        let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
        let mut client = cache.client();
        for i in 0..keys {
            let key = i.to_le_bytes();
            client.set(&key, b"value");
            for _ in 0..1 + u64::from(i % 3 == 0) {
                assert!(client.get(&key).is_some(), "key {i} missed");
            }
        }
        let fc = client.fc_cache().expect("an FC cache");
        assert_eq!(fc.len() as u64, keys, "one counter per key, none flushed");
        assert_eq!(fc.buffered_increments(), keys + keys.div_ceil(3));
        let owed: Vec<_> = client
            .freq_words()
            .into_iter()
            .map(|(addr, freq)| (addr, freq + client.fc_cache().unwrap().pending_delta(addr)))
            .collect();

        let stats = cache.pool().stats();
        let sum = |f: fn(&ditto_dm::stats::NodeSnapshot) -> u64| -> u64 {
            stats.node_snapshots().iter().map(f).sum()
        };
        let (faas, messages, doorbells) =
            (sum(|n| n.faa), sum(|n| n.messages), sum(|n| n.doorbells));
        let start = client.dm().now_ns();
        client.flush();
        let elapsed = client.dm().now_ns() - start;
        let doorbells = sum(|n| n.doorbells) - doorbells;

        assert_eq!(sum(|n| n.faa) - faas, keys, "one FAA per counter");
        assert_eq!(sum(|n| n.messages) - messages, keys, "and nothing else");
        let rings = keys.div_ceil(MAX_WQES as u64);
        assert!(
            (rings..rings + u64::from(nodes)).contains(&doorbells),
            "{doorbells} doorbells for {rings} rings on {nodes} nodes"
        );
        assert!(
            nodes == 1 || doorbells > rings,
            "no ring straddled two nodes: the case went uncovered"
        );
        // Per ring at most: its doorbells, an issue and a poll per FAA, and
        // one FAA flight waited for.
        let bound = rings
            * (MAX_WQES as u64 * (DmConfig::VERB_ISSUE_NS + DmConfig::CQ_POLL_NS)
                + DmConfig::FAA_LATENCY_NS)
            + doorbells * DmConfig::DOORBELL_LATENCY_NS;
        assert!(
            elapsed <= bound,
            "the drain took {elapsed} ns, over {bound}"
        );
        assert_eq!(
            client.freq_words(),
            owed,
            "a freq word gained other than it was owed"
        );
        assert!(client.fc_cache().unwrap().is_empty());
    }

    #[test]
    fn the_drain_rings_doorbells_not_round_trips() {
        assert_the_drain_rings_doorbells_not_round_trips(1, 100);
    }

    #[test]
    fn the_drain_rings_doorbells_not_round_trips_across_two_nodes() {
        assert_the_drain_rings_doorbells_not_round_trips(2, 100);
    }

    /// An FC counter buffered against a slot whose stripe then cuts over is
    /// owed to the stripe's live copy: the drain's FAA lands in the `freq`
    /// word there, not in the retired copy on the drained node.
    #[test]
    fn a_counter_recorded_before_a_cutover_lands_in_the_live_copy() {
        let config = DittoConfig {
            fc_threshold: u64::MAX,
            ..DittoConfig::with_capacity(1_000)
        };
        let dm = DmConfig::default().with_memory_nodes(2);
        let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
        let mut client = cache.client();
        let table = cache.table.clone();
        let key = key_with_buckets(&table, "counted", |b| table.node_of_bucket(b) == 1);
        client.set(key.as_bytes(), b"value");
        for _ in 0..2 {
            assert!(client.get(key.as_bytes()).is_some());
        }
        let words = client.freq_words();
        let fc = client.fc_cache().expect("an FC cache");
        let (recorded, freq) = words
            .into_iter()
            .find(|&(addr, _)| fc.pending_delta(addr) > 0)
            .expect("the key's counter is buffered");
        let owed = fc.pending_delta(recorded);
        assert_eq!(recorded.mn_id, 1);

        cache.pool().drain_node(1).unwrap();
        cache.pump_migration();
        let live = table
            .directory()
            .home_of(recorded)
            .expect("the stripe moved");
        assert_eq!(live.mn_id, 0);
        client.flush();
        assert!(client.fc_cache().unwrap().is_empty());
        assert!(
            client.freq_words().contains(&(live, freq + owed)),
            "the live freq word did not gain the {owed} owed to it"
        );
        let retired = cache.pool().node(1).unwrap().load_u64(recorded.offset);
        assert_eq!(retired, Ok(freq), "the retired copy took the FAA");
    }

    /// A client that connected after node 1 was removed has no queue pair
    /// to it, and 50 FC counters on each node, node 0's first.  The drain
    /// posts them all and lets the ring decide: the first node-1 FAA
    /// completes `NodeRemoved` and is dropped as final, the 29 flushed
    /// behind it go with it, and the 20 still pending are never posted —
    /// while node 0's counters land.
    #[test]
    fn the_drain_drops_the_counters_of_a_node_it_has_no_queue_pair_to() {
        let config = DittoConfig {
            fc_threshold: u64::MAX,
            ..DittoConfig::with_capacity(1_000)
        };
        let dm = DmConfig::default().with_memory_nodes(2);
        let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
        let pool = cache.pool();
        pool.drain_node(1).unwrap();
        pool.remove_node(1).unwrap();
        let mut client = cache.client();
        let table = client.table.clone();
        let counters = |mn: u16| {
            (0..table.num_buckets())
                .filter(|&b| table.node_of_bucket(b) == mn)
                .map(|b| SampleFriendlyHashTable::freq_addr(table.slot_addr(b, 0)))
                .take(50)
                .collect::<Vec<_>>()
        };
        let (on_live, on_removed) = (counters(0), counters(1));
        assert_eq!((on_live.len(), on_removed.len()), (50, 50));
        let fc = client.fc.as_mut().expect("an FC cache");
        for &addr in on_live.iter().chain(&on_removed) {
            assert!(fc.record(addr).is_empty());
        }
        let stats = pool.stats();
        let (failures, doorbells) = (stats.faults().verb_failures, stats.doorbells());
        client.flush();
        assert!(client.fc_cache().unwrap().is_empty());
        // One failure: the rejected FAA.  The flushed ones are none of
        // their own, and no later ring re-posted a node-1 counter.
        assert_eq!(stats.verb_faults_on(1), 1);
        assert_eq!(stats.faults().verb_failures, failures + 1);
        let nodes = stats.node_snapshots();
        assert_eq!((nodes[0].faa, nodes[1].faa), (50, 0));
        assert_eq!(
            stats.doorbells() - doorbells,
            2 + 1,
            "two rings of 40; the second straddles both nodes"
        );
        let node = pool.node(0).unwrap();
        for addr in on_live {
            assert_eq!(node.load_u64(addr.offset), Ok(1), "{addr:?}");
        }
    }

    #[test]
    fn concurrent_clients_do_not_corrupt_each_other() {
        let cache = small_cache(2_000);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    let mut client = cache.client();
                    for i in 0..300u64 {
                        let key = format!("t{t}-key{i}");
                        client.set(key.as_bytes(), key.as_bytes());
                    }
                    for i in 0..300u64 {
                        let key = format!("t{t}-key{i}");
                        if let Some(v) = client.get(key.as_bytes()) {
                            assert_eq!(v, key.as_bytes(), "corrupted value for {key}");
                        }
                    }
                });
            }
        });
        assert!(cache.stats().snapshot().hits > 0);
    }
}
