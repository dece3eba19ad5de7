//! Online bucket-range migration: the live-resize protocol (§4.1's
//! elasticity story, completed).
//!
//! `add_node`/`drain_node` only change where *new* placements land; the
//! hash-table stripes — and therefore the lookup message load — keep their
//! old layout.  This module adds the missing piece: a per-stripe migration
//! state machine that moves bucket ranges (and, driven by the cache layer,
//! their resident objects) onto the nodes the new topology assigns, while
//! clients keep reading and writing the table.
//!
//! # The per-stripe state machine
//!
//! ```text
//!   Idle ──begin──▶ Copying ──copy done──▶ DualRead ──commit──▶ Committed
//!    ▲                                                              │
//!    └────────────────────── next migration of the stripe ──────────┘
//! ```
//!
//! * **Idle / Committed** — the stripe is fully live at the address in the
//!   [`StripeDirectory`]; no forwarding marker is set.
//! * **Copying** — the [`MigrationEngine`] holds the stripe's
//!   [`RemoteLock`] and copies the bucket array source → destination.  The
//!   directory already carries the *forwarding marker* (the destination
//!   base), so writers that observe this state mirror their slot updates.
//! * **DualRead** — the bulk copy is done and the lock released.  Readers
//!   still read the **source** (it stays the single source of truth), but
//!   re-check the stripe's directory entry after every bucket fetch and
//!   retry when a cutover raced them.  Writers CAS the source and mirror
//!   the new slot value to the destination under the stripe lock.  The
//!   cache layer relocates the stripe's resident objects in this window.
//! * **commit** — under the stripe lock the engine *reconciles* the
//!   stripe: every source word a client may CAS is CAS-swapped to
//!   [`RECONCILE_POISON`] as its value is carried to the destination, the
//!   words in between ride the same chunk READ → WRITE (see the constant's
//!   docs for why a plain re-copy is not enough for the former and is for
//!   the latter), then the directory entry flips to
//!   the destination and the pool's resize epoch bumps (the *migration
//!   epoch* piggybacks on it), so every client revalidates its placement
//!   snapshot and follows the redirect.
//!
//! # Client redirect rules
//!
//! 1. Translate bucket indices through the [`StripeDirectory`] on every
//!    access — one relaxed atomic load per bucket in steady state.
//! 2. After reading buckets, re-check their stripes' directory entries;
//!    if an entry changed (a cutover committed mid-lookup), retry the
//!    lookup against the new addresses.
//! 3. After a successful slot CAS, ask the directory where the write
//!    belongs ([`StripeDirectory::confirm_write`]): `Clean` means done;
//!    `Mirror` means replay the value at the forwarding address under the
//!    stripe lock; `Stale` means a cutover raced the CAS — the poison
//!    protocol makes the outcome deterministic (a succeeded CAS against a
//!    non-zero expected value was provably carried; an insert against an
//!    empty word is rolled back and retried).
//! 4. A read that observes [`RECONCILE_POISON`] is mid-cutover: do not
//!    act on the view (a poisoned bucket decodes as all-empty) —
//!    re-translate through the directory and re-read until the commit
//!    finishes flipping the stripe.
//!
//! The [`MigrationPlanner`] diffs the directory's current placement
//! against the topology's assignment (the *pending-assignment view* of
//! [`PoolTopology::pending_reassignments`]) into per-stripe
//! [`MoveJob`]s; draining a node plans every one of its stripes away, so
//! pumping the plan to completion drains the node **to empty** and
//! [`crate::MemoryPool::remove_node`] can decommission it.

use crate::addr::RemoteAddr;
use crate::client::DmClient;
use crate::error::{DmError, DmResult};
use crate::lock::RemoteLock;
use crate::obs::{EventKind, StripeState};
use crate::pool::MemoryPool;
use crate::topology::PoolTopology;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes copied per READ/WRITE pair while migrating a stripe.
const COPY_CHUNK: usize = 4096;

/// Marker the commit's reconcile pass swaps into the words of the vacated
/// source copy that clients CAS, as it carries each word's value to the
/// destination.
///
/// This is what makes a slot CAS racing a cutover *deterministic* instead
/// of ambiguous: the reconcile swaps each such source word to this marker
/// (one word CAS at a time) before writing the taken value to the destination,
/// so a concurrent word CAS either lands **before** the swap — in which
/// case the swap itself carries the CASed value to the live home — or
/// observes the marker and fails.  A CAS that *succeeded* but was judged
/// [`WriteDisposition::Stale`] therefore provably made it into the
/// destination copy; without the marker the writer cannot tell a carried
/// write from a swallowed one, and cleaning up on the wrong guess either
/// loses the write or leaks the object it displaced.
///
/// **Which words.**  Only a word some client CASes needs the marker: every
/// reader of it — a bucket or slot decode, a hinted or lease-revalidating
/// READ of the slot word, a CAS observing it — looks at a CAS-able word
/// already.  The structure striped over the directory therefore declares its
/// record layout ([`StripeDirectory::with_cas_words`]; the hash table's is
/// `(40, 0)`: the first word of each 40-byte slot) and the sweep swaps those
/// words alone — a fifth of the CASes, all of them messages on the source
/// node's NIC in the middle of a resize.  The words in between are plain
/// data, written and `FAA`ed but never CASed; they travel with the chunk's
/// READ → WRITE, and writers mirror them into the destination while the
/// stripe is moving.  The one behavioural difference from sweeping every
/// word: an update of such a word that lands on the source *between the
/// chunk's READ and the cutover* — a frequency-counter `FAA`, an unmirrored
/// timestamp — is no longer chased to the destination.  That is the
/// best-effort loss these advisory fields already have when the verb itself
/// faults; nothing a client CASes can be lost this way.  With the default
/// layout `(8, 0)` every word is swapped, as before.
///
/// Upper layers must (a) never store this value in a word a CAS can
/// target — the slot layer treats it as an impossible encoding and decodes
/// it as an empty slot — and (b) treat a CAS that *observes* it as "the
/// stripe is mid-cutover": back off and re-translate through the
/// directory.
pub const RECONCILE_POISON: u64 = u64::MAX;

/// Simulated back-off of the per-stripe migration locks, in nanoseconds.
const LOCK_BACKOFF_NS: u64 = 1_000;

/// Simulated back-off between retries of a faulted migration verb.
const VERB_RETRY_BACKOFF_NS: u64 = 500;

/// Per-verb retry bound during the bulk copy.  A copy that still fails is
/// aborted cleanly ([`StripeDirectory::abort_move`]) — the stripe stays
/// fully served from the source — so a modest bound suffices.
const COPY_VERB_RETRIES: u32 = 16;

/// Per-verb retry bound during the commit's reconcile pass.  Deliberately
/// deep: aborting mid-reconcile strands already-poisoned source words
/// (their carried values live only in the pass's buffer), so transient
/// faults must be retried essentially forever; only a fail-stopped node —
/// where the stripe's words are gone regardless, the DM copy being
/// unreplicated — gives up.
const RECONCILE_VERB_RETRIES: u32 = 64;

/// Retries `f` through transient verb faults ([`DmError::VerbFailed`] /
/// [`DmError::VerbTimeout`]) up to `attempts` total tries, charging
/// [`VERB_RETRY_BACKOFF_NS`] between tries.  Non-transient errors (and the
/// last transient one) propagate.
fn retry_verb<T>(
    client: &DmClient,
    attempts: u32,
    mut f: impl FnMut(&DmClient) -> DmResult<T>,
) -> DmResult<T> {
    let mut attempt = 0;
    loop {
        match f(client) {
            Ok(v) => return Ok(v),
            Err(e) => {
                attempt += 1;
                let transient =
                    matches!(e, DmError::VerbFailed { .. } | DmError::VerbTimeout { .. });
                if !transient || attempt >= attempts {
                    return Err(e);
                }
                client
                    .pool()
                    .stats()
                    .record_verb_retry(VERB_RETRY_BACKOFF_NS);
                client.advance_ns(VERB_RETRY_BACKOFF_NS);
            }
        }
    }
}

/// Migration state of one stripe (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MigrationState {
    /// No migration in progress; the directory entry is authoritative.
    Idle = 0,
    /// The engine is bulk-copying the stripe under its lock.
    Copying = 1,
    /// Bulk copy done; readers use the source, writers dual-write.
    DualRead = 2,
    /// The last migration of this stripe committed; entry is authoritative.
    Committed = 3,
}

impl MigrationState {
    fn from_u8(raw: u8) -> Self {
        match raw {
            1 => MigrationState::Copying,
            2 => MigrationState::DualRead,
            3 => MigrationState::Committed,
            _ => MigrationState::Idle,
        }
    }

    /// Whether a move of the stripe is in flight (forwarding marker set).
    pub fn is_moving(self) -> bool {
        matches!(self, MigrationState::Copying | MigrationState::DualRead)
    }
}

/// Where a just-performed slot write belongs, as judged by the directory
/// (rule 3 of the client redirect rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteDisposition {
    /// The address is current and its stripe is not moving: nothing to do.
    Clean,
    /// The stripe is moving: replay the write at the forwarding address
    /// (under the stripe's lock, re-checking for a cutover).
    Mirror {
        /// The stripe being moved.
        stripe: u64,
        /// The same slot inside the destination copy.
        addr: RemoteAddr,
    },
    /// The address belongs to no current stripe — the write landed on a
    /// copy that was already cut over.  Redo the operation.
    Stale,
}

/// The shared, epoch-versioned placement of every hash-table stripe.
///
/// Structures striped over the pool register their per-stripe base
/// addresses here; data paths translate stripe indices through
/// [`StripeDirectory::current`] (one relaxed atomic load) so a committed
/// cutover redirects all clients at once.
pub struct StripeDirectory {
    /// Packed current base address per stripe.
    entries: Vec<AtomicU64>,
    /// Packed destination base while a move is in flight (0 = none) — the
    /// per-stripe forwarding marker.
    forwards: Vec<AtomicU64>,
    /// Per-stripe [`MigrationState`].
    states: Vec<AtomicU8>,
    /// Number of stripes currently in `Copying`/`DualRead` (fast-path
    /// short-circuit for the mirror checks).
    active_moves: AtomicUsize,
    /// Bumped on every committed cutover; clients capture it per operation
    /// to detect redirects that raced them.
    version: AtomicU64,
    /// Directory version at which each stripe last committed a cutover.
    /// Guards against range-reuse ABA: an address that *now* falls inside
    /// some stripe's range is only trustworthy if that stripe has not cut
    /// over since the writer captured its token — otherwise the range may
    /// be a recycled parking slot that belonged to a different stripe.
    committed_at: Vec<AtomicU64>,
    /// Packed base each stripe vacated at its most recent cutover (0 =
    /// never moved).  A writer whose CAS raced a commit uses this to find
    /// the stripe's new home and resolve whether the reconcile copy
    /// carried its write ([`StripeDirectory::resolve_vacated`]).
    previous: Vec<AtomicU64>,
    stripe_bytes: u64,
    /// Record layout of the striped structure, as far as the cutover needs
    /// it: the words clients CAS sit at `cas_offset` in every `cas_stride`
    /// bytes of a stripe ([`StripeDirectory::with_cas_words`]).
    cas_stride: u64,
    cas_offset: u64,
}

impl StripeDirectory {
    /// Creates a directory over the given per-stripe base addresses, each
    /// `stripe_bytes` long, whose every 8-byte word may be the target of a
    /// client CAS (narrowed by [`StripeDirectory::with_cas_words`]).
    pub fn new(bases: &[RemoteAddr], stripe_bytes: u64) -> Self {
        StripeDirectory {
            entries: bases.iter().map(|a| AtomicU64::new(a.pack())).collect(),
            forwards: (0..bases.len()).map(|_| AtomicU64::new(0)).collect(),
            states: (0..bases.len()).map(|_| AtomicU8::new(0)).collect(),
            active_moves: AtomicUsize::new(0),
            version: AtomicU64::new(0),
            committed_at: (0..bases.len()).map(|_| AtomicU64::new(0)).collect(),
            previous: (0..bases.len()).map(|_| AtomicU64::new(0)).collect(),
            stripe_bytes,
            cas_stride: 8,
            cas_offset: 0,
        }
    }

    /// Declares the record layout of the striped structure: clients CAS
    /// only the 8-byte word at byte `offset` of every `stride`-byte record
    /// (records start at the stripe's base), so a cutover's reconcile pass
    /// swaps [`RECONCILE_POISON`] into those words alone and carries the
    /// rest by plain copy.  The default, `(8, 0)`, is every word.
    ///
    /// # Panics
    ///
    /// Panics unless `stride` is a whole number of words, `offset` names a
    /// word inside it and stripes hold whole records.
    pub fn with_cas_words(mut self, stride: u64, offset: u64) -> Self {
        assert!(
            stride > 0
                && stride.is_multiple_of(8)
                && offset.is_multiple_of(8)
                && offset < stride
                && self.stripe_bytes.is_multiple_of(stride),
            "CAS-word layout ({stride}, {offset}) does not tile {}-byte stripes",
            self.stripe_bytes
        );
        (self.cas_stride, self.cas_offset) = (stride, offset);
        self
    }

    /// Whether clients may CAS the word `stripe_offset` bytes into a stripe.
    fn is_cas_word(&self, stripe_offset: u64) -> bool {
        stripe_offset % self.cas_stride == self.cas_offset
    }

    /// Number of stripes tracked.
    pub fn num_stripes(&self) -> usize {
        self.entries.len()
    }

    /// Size of one stripe in bytes.
    pub fn stripe_bytes(&self) -> u64 {
        self.stripe_bytes
    }

    /// The current base address of stripe `stripe`.
    pub fn current(&self, stripe: u64) -> RemoteAddr {
        RemoteAddr::unpack(self.entries[stripe as usize].load(Ordering::Acquire))
    }

    /// The node currently hosting stripe `stripe`.
    pub fn current_node(&self, stripe: u64) -> u16 {
        self.current(stripe).mn_id
    }

    /// The raw packed entry of stripe `stripe` — the token readers compare
    /// before and after a bucket fetch (redirect rule 2).
    pub fn entry_token(&self, stripe: u64) -> u64 {
        self.entries[stripe as usize].load(Ordering::Acquire)
    }

    /// The migration state of stripe `stripe`.
    pub fn state(&self, stripe: u64) -> MigrationState {
        MigrationState::from_u8(self.states[stripe as usize].load(Ordering::Acquire))
    }

    /// The forwarding marker of stripe `stripe`, if a move is in flight.
    pub fn forward(&self, stripe: u64) -> Option<RemoteAddr> {
        let raw = self.forwards[stripe as usize].load(Ordering::Acquire);
        (raw != 0).then(|| RemoteAddr::unpack(raw))
    }

    /// Number of stripes currently moving.
    pub fn active_moves(&self) -> usize {
        self.active_moves.load(Ordering::Acquire)
    }

    /// The cutover version: bumped on every commit.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Starts a move of `stripe` to `dst_base` (state → `Copying`).
    pub fn begin_move(&self, stripe: u64, dst_base: RemoteAddr) {
        self.forwards[stripe as usize].store(dst_base.pack(), Ordering::Release);
        self.states[stripe as usize].store(MigrationState::Copying as u8, Ordering::Release);
        self.active_moves.fetch_add(1, Ordering::AcqRel);
    }

    /// Unwinds a move begun with [`StripeDirectory::begin_move`] whose bulk
    /// copy could not complete (state → `Idle`, marker cleared).  Only
    /// valid from `Copying`, while the engine still holds the stripe lock:
    /// once the stripe is dual-read, writers may have mirrored slot
    /// updates into the destination and the move must roll forward.
    pub fn abort_move(&self, stripe: u64) {
        let idx = stripe as usize;
        debug_assert_eq!(
            self.state(stripe),
            MigrationState::Copying,
            "abort_move is only valid before dual-read"
        );
        self.forwards[idx].store(0, Ordering::Release);
        self.states[idx].store(MigrationState::Idle as u8, Ordering::Release);
        self.active_moves.fetch_sub(1, Ordering::AcqRel);
    }

    /// Transitions `stripe` from `Copying` to `DualRead`.
    pub fn enter_dual_read(&self, stripe: u64) {
        self.states[stripe as usize].store(MigrationState::DualRead as u8, Ordering::Release);
    }

    /// Commits the move of `stripe`: the forwarding address becomes the
    /// entry, the marker clears, state → `Committed`, version bumps.
    pub fn commit(&self, stripe: u64) {
        let idx = stripe as usize;
        let dst = self.forwards[idx].swap(0, Ordering::AcqRel);
        debug_assert_ne!(dst, 0, "commit without begin_move");
        let vacated = self.entries[idx].swap(dst, Ordering::AcqRel);
        self.previous[idx].store(vacated, Ordering::Release);
        self.states[idx].store(MigrationState::Committed as u8, Ordering::Release);
        self.active_moves.fetch_sub(1, Ordering::AcqRel);
        let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        self.committed_at[idx].store(version, Ordering::Release);
    }

    /// The stripe whose *current* range contains `addr`, if any.
    fn locate(&self, addr: RemoteAddr) -> Option<u64> {
        self.entries
            .iter()
            .position(|e| {
                let base = RemoteAddr::unpack(e.load(Ordering::Acquire));
                base.mn_id == addr.mn_id
                    && addr.offset >= base.offset
                    && addr.offset < base.offset + self.stripe_bytes
            })
            .map(|i| i as u64)
    }

    /// The stripe whose *current* range contains `addr`, if any.  Lets a
    /// client tell whether a judged-stale address has been recycled into
    /// another stripe's live range (parking reuse).
    pub fn locate_current(&self, addr: RemoteAddr) -> Option<u64> {
        self.locate(addr)
    }

    /// Translates an address inside a range some stripe vacated at its
    /// most recent cutover to the same offset inside that stripe's current
    /// home.  Returns `None` when no vacated range covers `addr` (e.g. the
    /// stripe has moved *again* since, recycling its `previous` entry).
    ///
    /// Used by the stale-CAS cleanup to chase a scribbled insert that a
    /// later reconcile pass carried along with the range it sat in: the
    /// offset within the stripe is invariant across moves, so the chase
    /// re-tries its rollback at the same offset in the stripe's new home.
    pub fn resolve_vacated(&self, addr: RemoteAddr) -> Option<(u64, RemoteAddr)> {
        self.previous.iter().enumerate().find_map(|(i, p)| {
            let raw = p.load(Ordering::Acquire);
            if raw == 0 {
                return None;
            }
            let base = RemoteAddr::unpack(raw);
            (base.mn_id == addr.mn_id
                && addr.offset >= base.offset
                && addr.offset < base.offset + self.stripe_bytes)
                .then(|| {
                    (
                        i as u64,
                        self.current(i as u64).add(addr.offset - base.offset),
                    )
                })
        })
    }

    /// Best-effort mirror address for a metadata write to `addr`: the same
    /// offset inside the destination copy when the containing stripe is
    /// moving, `None` otherwise.  One atomic load in steady state.
    pub fn mirror_of(&self, addr: RemoteAddr) -> Option<RemoteAddr> {
        if self.active_moves.load(Ordering::Acquire) == 0 {
            return None;
        }
        let stripe = self.locate(addr)?;
        if !self.state(stripe).is_moving() {
            return None;
        }
        let forward = self.forward(stripe)?;
        let base = self.current(stripe);
        Some(forward.add(addr.offset - base.offset))
    }

    /// Judges a just-performed slot write at `addr` (redirect rule 3).
    /// `token` is the directory version captured when the operation
    /// computed its addresses; a version bump since then means a cutover
    /// raced the operation and the address must be re-validated.
    pub fn confirm_write(&self, addr: RemoteAddr, token: u64) -> WriteDisposition {
        let moves = self.active_moves.load(Ordering::Acquire);
        if moves == 0 && self.version() == token {
            return WriteDisposition::Clean;
        }
        let Some(stripe) = self.locate(addr) else {
            // No current stripe contains the address: the write hit a copy
            // that has already been cut over.
            return WriteDisposition::Stale;
        };
        if self.committed_at[stripe as usize].load(Ordering::Acquire) > token {
            // The containing stripe cut over after the writer captured its
            // token: `addr` may be a recycled parking range that belonged
            // to a *different* stripe when the operation started (ABA), so
            // the write cannot be trusted — redo the operation.
            return WriteDisposition::Stale;
        }
        if !self.state(stripe).is_moving() {
            return WriteDisposition::Clean;
        }
        match self.forward(stripe) {
            Some(forward) => {
                let base = self.current(stripe);
                WriteDisposition::Mirror {
                    stripe,
                    addr: forward.add(addr.offset - base.offset),
                }
            }
            None => WriteDisposition::Clean,
        }
    }
}

/// One planned stripe move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveJob {
    /// Global stripe index.
    pub stripe: u64,
    /// Node the stripe lives on when the job was planned.
    pub src: u16,
    /// Node the topology assigns the stripe to.
    pub dst: u16,
}

/// Diffs current stripe placement against a topology into [`MoveJob`]s.
pub struct MigrationPlanner;

impl MigrationPlanner {
    /// Plans the moves that reconcile `dir`'s current placement with
    /// `topology`'s assignment.
    pub fn plan(dir: &StripeDirectory, topology: &PoolTopology) -> Vec<MoveJob> {
        topology
            .pending_reassignments(dir.num_stripes() as u64, |s| dir.current_node(s))
            .into_iter()
            .map(|r| MoveJob {
                stripe: r.stripe,
                src: r.from,
                dst: r.to,
            })
            .collect()
    }
}

/// Drives planned [`MoveJob`]s through the per-stripe state machine.
///
/// The engine owns one [`RemoteLock`] word per stripe (reserved on node 0)
/// and a job queue refreshed from the [`MigrationPlanner`] whenever the
/// pool's resize epoch moves.  [`MigrationEngine::begin`] bulk-copies a
/// stripe into `DualRead`; the cache layer then relocates the stripe's
/// resident objects; [`MigrationEngine::commit`] reconciles and cuts over.
/// Destination ranges come from per-node **stripe parking**: pre-reserved
/// at engine creation (before object segments run the arena to capacity)
/// and refilled with every vacated source range, so repeated resizes —
/// even of a long-full node — neither leak arena nor fail for space.
pub struct MigrationEngine {
    pool: MemoryPool,
    dir: Arc<StripeDirectory>,
    /// Base of the per-stripe lock words.
    lock_base: RemoteAddr,
    /// Pending stripe moves (drained by pumps, possibly concurrently).
    jobs: Mutex<VecDeque<MoveJob>>,
    /// Resize epoch the current plan was computed against.
    planned_epoch: AtomicU64,
    /// Per-node pool of stripe-sized parking ranges: pre-reserved at
    /// creation (before object allocations can eat the arena) and refilled
    /// with every vacated source range, so incoming stripes always have a
    /// home even on a node that has long since run its arena to capacity.
    parking: Mutex<HashMap<u16, Vec<RemoteAddr>>>,
    /// Token-bucket rate limit on migration copy verbs, in bytes of copied
    /// stripe data per simulated second (0 = unlimited).  Keeps a pump's
    /// bulk-copy traffic from monopolising the RNICs against foreground
    /// operations: a throttled pump *waits* (advances its own simulated
    /// clock) instead of bursting the whole stripe at once.
    copy_rate: AtomicU64,
    /// Leaky-bucket pacing state: the simulated time at which the copy
    /// budget is next available.  Shared by every pumping client, so
    /// concurrent pumps jointly respect the rate.
    copy_next_free_ns: Mutex<u64>,
}

impl MigrationEngine {
    /// Creates an engine for the stripes in `dir`: reserves the per-stripe
    /// lock words plus, on every initially-active node, enough stripe
    /// parking to absorb one drained peer's share of the bucket ranges.
    /// Reserving the parking *up front* matters — once the cache warms up,
    /// object segments run the bump arena to capacity and a drain would
    /// find no room for the incoming stripes.
    pub fn new(pool: &MemoryPool, dir: Arc<StripeDirectory>) -> DmResult<Self> {
        let lock_base = pool.reserve(dir.num_stripes() as u64 * 8)?;
        let mut parking: HashMap<u16, Vec<RemoteAddr>> = HashMap::new();
        let topology = pool.topology();
        let nodes = topology.num_active() as u64;
        if nodes > 1 {
            let slots = (dir.num_stripes() as u64)
                .div_ceil(nodes)
                .div_ceil(nodes - 1);
            for &mn in topology.active() {
                let lot = parking.entry(mn).or_default();
                for _ in 0..slots {
                    lot.push(pool.reserve_on(mn, dir.stripe_bytes())?);
                }
            }
        }
        Ok(MigrationEngine {
            pool: pool.clone(),
            dir,
            lock_base,
            jobs: Mutex::new(VecDeque::new()),
            planned_epoch: AtomicU64::new(u64::MAX),
            parking: Mutex::new(parking),
            copy_rate: AtomicU64::new(0),
            copy_next_free_ns: Mutex::new(0),
        })
    }

    /// Sets the token-bucket rate limit on migration copy verbs, in bytes
    /// of copied stripe data per simulated second (0 = unlimited).  Exposed
    /// through `DittoConfig::migration_copy_bytes_per_sec` at the cache
    /// layer.
    pub fn set_copy_rate(&self, bytes_per_sec: u64) {
        self.copy_rate.store(bytes_per_sec, Ordering::Relaxed);
    }

    /// The configured copy rate limit in bytes per simulated second
    /// (0 = unlimited).
    pub fn copy_rate(&self) -> u64 {
        self.copy_rate.load(Ordering::Relaxed)
    }

    /// Takes `bytes` of copy budget from the token bucket, stalling the
    /// pumping client (advancing its simulated clock) when the bucket is
    /// dry.  No-op when no rate limit is configured.
    ///
    /// Public because *all* migration traffic shares this one bucket: the
    /// engine charges its stripe bulk copies here, and the cache layer
    /// charges the object-relocation READ/WRITEs it issues while draining a
    /// stripe's residents — so `migration_copy_bytes_per_sec` caps the
    /// combined resize traffic, not just the bucket arrays.
    pub fn throttle_copy(&self, client: &DmClient, bytes: u64) {
        let rate = self.copy_rate();
        if rate == 0 {
            return;
        }
        let cost_ns = bytes.saturating_mul(1_000_000_000) / rate.max(1);
        let now = client.now_ns();
        let mut next_free = self.copy_next_free_ns.lock();
        let start = (*next_free).max(now);
        *next_free = start + cost_ns;
        client.advance_ns(start - now);
    }

    /// The stripe directory the engine migrates.
    pub fn directory(&self) -> &Arc<StripeDirectory> {
        &self.dir
    }

    /// The [`RemoteLock`] guarding stripe `stripe`.
    pub fn stripe_lock(&self, stripe: u64) -> RemoteLock {
        RemoteLock::new(self.lock_base.add(stripe * 8), LOCK_BACKOFF_NS)
    }

    /// Crash recovery: frees every stripe lock still leased to a client
    /// *known* to be dead, without waiting out the leases — one READ per
    /// stripe plus a fencing CAS per lock actually held by `dead_owner`
    /// (client id; the lock word stores it mod 512).  Returns the number of
    /// locks reclaimed; each is also recorded in
    /// [`crate::PoolStats::faults`].
    pub fn reclaim_stripe_locks(&self, client: &DmClient, dead_owner: u32) -> u64 {
        let mut reclaimed = 0;
        for stripe in 0..self.dir.num_stripes() as u64 {
            if self.stripe_lock(stripe).reclaim(client, dead_owner) {
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Re-plans against the pool's current topology if the resize epoch
    /// moved since the last plan.  Returns the number of pending jobs.
    pub fn maybe_replan(&self) -> usize {
        let epoch = self.pool.resize_epoch();
        if self.planned_epoch.swap(epoch, Ordering::AcqRel) == epoch {
            return self.pending_jobs();
        }
        self.replan()
    }

    /// Unconditionally re-plans against the pool's current topology,
    /// replacing the pending queue.  Returns the number of pending jobs.
    pub fn replan(&self) -> usize {
        let topology = self.pool.topology();
        self.planned_epoch
            .store(topology.epoch(), Ordering::Release);
        let plan = MigrationPlanner::plan(&self.dir, &topology);
        let mut jobs = self.jobs.lock();
        jobs.clear();
        jobs.extend(plan);
        jobs.len()
    }

    /// Number of planned stripe moves not yet taken by a pump.
    pub fn pending_jobs(&self) -> usize {
        self.jobs.lock().len()
    }

    /// Takes the next planned move, if any.
    pub fn next_job(&self) -> Option<MoveJob> {
        self.jobs.lock().pop_front()
    }

    /// Returns a taken job to the front of the queue — used when a pump
    /// cannot run it right now (e.g. the destination has no room yet), so
    /// the plan keeps reporting the stripe as pending instead of silently
    /// abandoning it.
    pub fn requeue_job(&self, job: MoveJob) {
        self.jobs.lock().push_front(job);
    }

    /// Whether all planned migration work has been consumed.
    pub fn is_idle(&self) -> bool {
        self.pending_jobs() == 0 && self.dir.active_moves() == 0
    }

    /// Runs `job` up to `DualRead`: reserves (or reuses) the destination
    /// range, bulk-copies the bucket array under the stripe lock and sets
    /// the forwarding marker.  Returns `false` without side effects when
    /// the job is stale (the stripe moved or is already moving — e.g. a
    /// plan superseded by a newer resize).
    pub fn begin(&self, client: &DmClient, job: &MoveJob) -> DmResult<bool> {
        let src_base = self.dir.current(job.stripe);
        if src_base.mn_id != job.src || job.src == job.dst || self.dir.state(job.stripe).is_moving()
        {
            return Ok(false);
        }
        let dst_base = self.home_on(job.dst)?;
        let lock = self.stripe_lock(job.stripe);
        let acq = lock.acquire(client);
        if !acq.is_acquired() {
            return Err(DmError::LockExhausted {
                retries: acq.retries.min(u32::MAX as u64) as u32,
            });
        }
        self.dir.begin_move(job.stripe, dst_base);
        self.pool.record_event(
            client.now_ns(),
            client.client_id(),
            EventKind::Migration {
                stripe: job.stripe,
                state: StripeState::Copying,
            },
        );
        if let Err(e) = self.copy_stripe(client, src_base, dst_base) {
            // The copy could not complete (e.g. the destination node
            // fail-stopped): unwind — marker cleared, destination range
            // parked for reuse — so the stripe stays fully served from the
            // source and the caller can requeue the job.
            self.dir.abort_move(job.stripe);
            self.parking
                .lock()
                .entry(dst_base.mn_id)
                .or_default()
                .push(dst_base);
            let _ = lock.release(client, &acq);
            return Err(e);
        }
        self.dir.enter_dual_read(job.stripe);
        self.pool.record_event(
            client.now_ns(),
            client.client_id(),
            EventKind::Migration {
                stripe: job.stripe,
                state: StripeState::DualRead,
            },
        );
        let _ = lock.release(client, &acq);
        Ok(true)
    }

    /// Commits `job`: under the stripe lock, reconciles the stripe — every
    /// source word clients CAS is swapped to [`RECONCILE_POISON`] as its
    /// value is carried to the destination, so a slot CAS racing this pass either
    /// gets carried or observes the poison and fails (never silently
    /// swallowed) — then flips the directory entry, remembers the vacated
    /// source range for reuse and piggybacks the cutover on the pool's
    /// resize epoch.
    pub fn commit(&self, client: &DmClient, job: &MoveJob) -> DmResult<()> {
        let lock = self.stripe_lock(job.stripe);
        let acq = lock.acquire(client);
        if !acq.is_acquired() {
            return Err(DmError::LockExhausted {
                retries: acq.retries.min(u32::MAX as u64) as u32,
            });
        }
        let src_base = self.dir.current(job.stripe);
        let Some(dst_base) = self.dir.forward(job.stripe) else {
            // Do not leak the stripe lock on the error path.
            let _ = lock.release(client, &acq);
            return Err(DmError::Topology {
                reason: format!("commit of stripe {} without begin", job.stripe),
            });
        };
        if let Err(e) = self.reconcile_stripe(client, src_base, dst_base) {
            // Reconcile only fails after burning RECONCILE_VERB_RETRIES per
            // verb — in practice a fail-stopped node.  Leave the stripe in
            // DualRead (readers still resolve every word via source +
            // forward) and release the lock; the pump requeues the job and
            // a later commit retries.  Source words this pass had already
            // poisoned are lost with the dead node — the DM copy is
            // unreplicated, exactly as in the paper's system.
            let _ = lock.release(client, &acq);
            return Err(e);
        }
        self.dir.commit(job.stripe);
        self.pool.record_event(
            client.now_ns(),
            client.client_id(),
            EventKind::Migration {
                stripe: job.stripe,
                state: StripeState::Committed,
            },
        );
        let _ = lock.release(client, &acq);
        self.parking
            .lock()
            .entry(src_base.mn_id)
            .or_default()
            .push(src_base);
        self.pool.stats().record_stripe_cutover();
        self.pool.bump_resize_epoch();
        Ok(())
    }

    /// Convenience: begin + commit with no object relocation in between
    /// (bucket arrays only).  Returns `false` for stale jobs.
    pub fn run_job(&self, client: &DmClient, job: &MoveJob) -> DmResult<bool> {
        if !self.begin(client, job)? {
            return Ok(false);
        }
        self.commit(client, job)?;
        Ok(true)
    }

    /// A destination range for a stripe on `node`: a parked range (the
    /// pre-reserved lot or a previously vacated home) when one exists,
    /// otherwise a fresh reservation (e.g. on a just-added, still-empty
    /// node).
    fn home_on(&self, node: u16) -> DmResult<RemoteAddr> {
        if let Some(addr) = self.parking.lock().get_mut(&node).and_then(Vec::pop) {
            return Ok(addr);
        }
        self.pool.reserve_on(node, self.dir.stripe_bytes())
    }

    /// Chunked copy of one stripe's bucket array `src` → `dst`, paced by
    /// the copy token bucket (each chunk consumes budget for its READ and
    /// its WRITE before the verbs are issued).
    fn copy_stripe(&self, client: &DmClient, src: RemoteAddr, dst: RemoteAddr) -> DmResult<()> {
        let total = self.dir.stripe_bytes();
        let mut buf = vec![0u8; COPY_CHUNK.min(total as usize)];
        let mut copied = 0u64;
        while copied < total {
            let take = ((total - copied) as usize).min(COPY_CHUNK);
            self.throttle_copy(client, 2 * take as u64);
            retry_verb(client, COPY_VERB_RETRIES, |c| {
                c.try_read_into(src.add(copied), &mut buf[..take])
            })?;
            retry_verb(client, COPY_VERB_RETRIES, |c| {
                c.try_write(dst.add(copied), &buf[..take])
            })?;
            copied += take as u64;
        }
        self.pool.stats().record_migrated_bytes(total);
        Ok(())
    }

    /// The commit-time variant of [`MigrationEngine::copy_stripe`]: carries
    /// each chunk to the destination with its READ → WRITE, the words
    /// clients CAS ([`StripeDirectory::with_cas_words`]) *through a CAS swap
    /// to [`RECONCILE_POISON`]* in between, so racing word CASes are
    /// linearised against the carry — see the constant's docs for why a
    /// plain re-copy is not enough for those words and is enough for the
    /// rest.  Holds no extra state: the caller already holds the stripe
    /// lock, which keeps other reconcile/copy passes off the range (racing
    /// *clients* are exactly who the poison protocol is for).
    fn reconcile_stripe(
        &self,
        client: &DmClient,
        src: RemoteAddr,
        dst: RemoteAddr,
    ) -> DmResult<()> {
        let total = self.dir.stripe_bytes();
        let mut buf = vec![0u8; COPY_CHUNK.min(total as usize)];
        // The chunk's words to swap (indices into `buf`), and what each
        // posted swap observed.
        let mut targets = Vec::with_capacity(buf.len() / 8);
        let mut observed = vec![0u64; crate::wqe::MAX_WQES];
        let mut copied = 0u64;
        while copied < total {
            let take = ((total - copied) as usize).min(COPY_CHUNK);
            // Picked by offset into the *stripe*: a chunk need not start on
            // a record boundary.
            targets.clear();
            targets.extend((0..take / 8).filter(|w| self.dir.is_cas_word(copied + (w * 8) as u64)));
            // One READ to seed the expected values, one word CAS per
            // swapped word, one WRITE to land the chunk: budget all three
            // passes against the copy token bucket.
            self.throttle_copy(client, 2 * take as u64 + 8 * targets.len() as u64);
            retry_verb(client, RECONCILE_VERB_RETRIES, |c| {
                c.try_read_into(src.add(copied), &mut buf[..take])
            })?;
            Self::poison_sweep(client, src.add(copied), &mut buf, &targets, &mut observed)?;
            retry_verb(client, RECONCILE_VERB_RETRIES, |c| {
                c.try_write(dst.add(copied), &buf[..take])
            })?;
            copied += take as u64;
        }
        self.pool.stats().record_migrated_bytes(total);
        Ok(())
    }

    /// Swaps [`RECONCILE_POISON`] into the words `targets` (indices into
    /// `buf`) of the source chunk at `chunk`, which `buf` holds as last
    /// read, and leaves in `buf` the value each swap carried.
    ///
    /// The sweep rides the posted-WQE path: a doorbell batch's worth of
    /// CASes goes out at once and is drained together, so it costs one
    /// max-latency round per batch, not one round trip per word (each CAS
    /// still consumes one RNIC message — batching buys latency, not message
    /// rate; only sweeping fewer words buys that).
    fn poison_sweep(
        client: &DmClient,
        chunk: RemoteAddr,
        buf: &mut [u8],
        targets: &[usize],
        observed: &mut [u64],
    ) -> DmResult<()> {
        let word = |buf: &[u8], w: usize| {
            u64::from_le_bytes(buf[w * 8..w * 8 + 8].try_into().expect("8-byte word"))
        };
        for group in targets.chunks(observed.len()) {
            let mut wq = client.work_queue();
            for (&w, out) in group.iter().zip(observed.iter_mut()) {
                let addr = chunk.add((w * 8) as u64);
                wq.post_cas(addr, word(buf, w), RECONCILE_POISON, out, true);
            }
            wq.ring();
            drop(wq);
            let faulted = client.try_drain_cq().is_err();
            for (&w, &got) in group.iter().zip(observed.iter()) {
                let expected = word(buf, w);
                // A word is redone, with synchronous retried swaps, in two
                // cases.  Some CAS of its batch faulted (NAK'd, not
                // applied), and which ones cannot be trusted from
                // `observed`: a posted swap that *did* land shows up as the
                // poison marker and resolves to the value it carried.  Or a
                // client CASed the word between the READ and the swap: the
                // newer value is carried instead (rare — one contended word
                // per incident).
                let seed = match (faulted, got == expected) {
                    (true, _) => expected,
                    (false, false) => got,
                    (false, true) => continue,
                };
                let carried = Self::poison_word(client, chunk.add((w * 8) as u64), seed)?;
                buf[w * 8..w * 8 + 8].copy_from_slice(&carried.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Synchronously swaps one source word to [`RECONCILE_POISON`],
    /// chasing racing client CASes, and returns the value the swap
    /// carried.  `expected` seeds the chase (the last value this pass saw
    /// at the word).  Observing the poison itself means an earlier posted
    /// swap by *this* pass already landed — only the reconcile poisons,
    /// under the stripe lock — so the carried value is `expected`.
    fn poison_word(client: &DmClient, addr: RemoteAddr, mut expected: u64) -> DmResult<u64> {
        loop {
            let got = retry_verb(client, RECONCILE_VERB_RETRIES, |c| {
                c.try_cas(addr, expected, RECONCILE_POISON)
            })?;
            if got == expected || got == RECONCILE_POISON {
                return Ok(expected);
            }
            expected = got;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmConfig;

    fn striped_pool(nodes: u16) -> MemoryPool {
        MemoryPool::new(DmConfig::small().with_memory_nodes(nodes))
    }

    /// Reserves `n` stripes of `bytes` each, placed by the pool topology.
    fn make_directory(pool: &MemoryPool, n: u64, bytes: u64) -> Arc<StripeDirectory> {
        let topology = pool.topology();
        let bases: Vec<RemoteAddr> = (0..n)
            .map(|s| pool.reserve_on(topology.node_for_stripe(s), bytes).unwrap())
            .collect();
        Arc::new(StripeDirectory::new(&bases, bytes))
    }

    #[test]
    fn directory_translates_and_tracks_state() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 4, 256);
        assert_eq!(dir.num_stripes(), 4);
        assert_eq!(dir.current_node(0), 0);
        assert_eq!(dir.current_node(1), 1);
        assert_eq!(dir.state(2), MigrationState::Idle);
        assert_eq!(dir.forward(2), None);
        assert_eq!(dir.active_moves(), 0);

        let dst = pool.reserve_on(0, 256).unwrap();
        dir.begin_move(1, dst);
        assert_eq!(dir.state(1), MigrationState::Copying);
        assert_eq!(dir.forward(1), Some(dst));
        assert_eq!(dir.active_moves(), 1);
        // The entry still names the source until commit.
        assert_eq!(dir.current_node(1), 1);
        dir.enter_dual_read(1);
        assert_eq!(dir.state(1), MigrationState::DualRead);
        let v = dir.version();
        dir.commit(1);
        assert_eq!(dir.state(1), MigrationState::Committed);
        assert_eq!(dir.current(1), dst);
        assert_eq!(dir.forward(1), None);
        assert_eq!(dir.active_moves(), 0);
        assert_eq!(dir.version(), v + 1);
    }

    #[test]
    fn mirror_of_maps_only_moving_stripes() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 2, 256);
        let in_stripe0 = dir.current(0).add(40);
        assert_eq!(
            dir.mirror_of(in_stripe0),
            None,
            "steady state mirrors nothing"
        );

        let dst = pool.reserve_on(0, 256).unwrap();
        dir.begin_move(1, dst);
        let in_stripe1 = dir.current(1).add(72);
        assert_eq!(dir.mirror_of(in_stripe1), Some(dst.add(72)));
        // The non-moving stripe still mirrors nothing.
        assert_eq!(dir.mirror_of(in_stripe0), None);
        dir.commit(1);
        assert_eq!(dir.mirror_of(dir.current(1).add(72)), None);
    }

    #[test]
    fn confirm_write_detects_mirrors_and_stale_copies() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 2, 256);
        let token = dir.version();
        let addr = dir.current(1).add(8);
        assert_eq!(dir.confirm_write(addr, token), WriteDisposition::Clean);

        let dst = pool.reserve_on(0, 256).unwrap();
        dir.begin_move(1, dst);
        dir.enter_dual_read(1);
        assert_eq!(
            dir.confirm_write(addr, token),
            WriteDisposition::Mirror {
                stripe: 1,
                addr: dst.add(8)
            }
        );
        dir.commit(1);
        // The old source address belongs to no current stripe any more.
        assert_eq!(dir.confirm_write(addr, token), WriteDisposition::Stale);
        // The new home is clean once the token catches up.
        assert_eq!(
            dir.confirm_write(dst.add(8), dir.version()),
            WriteDisposition::Clean
        );
    }

    #[test]
    fn confirm_write_rejects_recycled_ranges_aba() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 2, 256);
        // A writer captures its token and a slot address inside stripe 1,
        // then stalls.
        let token = dir.version();
        let stalled_addr = dir.current(1).add(16);
        let old_range_of_1 = dir.current(1);

        // Stripe 1 moves away; its vacated range is recycled as stripe 0's
        // new home (exactly what the parking pool does).
        let dst = pool.reserve_on(0, 256).unwrap();
        dir.begin_move(1, dst);
        dir.commit(1);
        dir.begin_move(0, old_range_of_1);
        dir.commit(0);

        // The stalled writer's address now falls inside stripe 0's live
        // range, but ownership changed after the token was captured: the
        // write must be judged Stale, not Clean.
        assert_eq!(
            dir.confirm_write(stalled_addr, token),
            WriteDisposition::Stale
        );
        // A fresh operation against the same range is Clean.
        assert_eq!(
            dir.confirm_write(stalled_addr, dir.version()),
            WriteDisposition::Clean
        );
    }

    #[test]
    fn planner_diffs_directory_against_topology() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 8, 256);
        assert!(MigrationPlanner::plan(&dir, &pool.topology()).is_empty());

        pool.add_node().unwrap();
        let plan = MigrationPlanner::plan(&dir, &pool.topology());
        assert!(!plan.is_empty());
        for job in &plan {
            assert_eq!(job.src, dir.current_node(job.stripe));
            assert_eq!(job.dst, pool.topology().node_for_stripe(job.stripe));
            assert_ne!(job.src, job.dst);
        }

        // Draining a node plans every one of its stripes away.
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 8, 256);
        pool.drain_node(1).unwrap();
        let plan = MigrationPlanner::plan(&dir, &pool.topology());
        assert_eq!(plan.len(), 4);
        assert!(plan.iter().all(|j| j.src == 1 && j.dst == 0));
    }

    #[test]
    fn engine_moves_stripe_bytes_and_bumps_the_epoch() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 4, 512);
        let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
        let client = pool.connect();

        // Scribble a recognisable pattern into stripe 1 (on node 1).
        let src = dir.current(1);
        let pattern: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        client.write(src, &pattern);

        pool.drain_node(1).unwrap();
        let epoch_before = pool.resize_epoch();
        assert_eq!(engine.maybe_replan(), 2);
        let mut moved = 0;
        while let Some(job) = engine.next_job() {
            assert!(engine.run_job(&client, &job).unwrap());
            moved += 1;
        }
        assert_eq!(moved, 2);
        assert!(engine.is_idle());

        // The stripe now lives on node 0 with identical bytes.
        let new_base = dir.current(1);
        assert_eq!(new_base.mn_id, 0);
        assert_eq!(client.read(new_base, 512), pattern);
        // Cutovers piggybacked on the resize epoch and were counted.
        assert!(pool.resize_epoch() > epoch_before);
        assert_eq!(pool.stats().stripe_cutovers(), 2);
        // Each stripe was copied twice (bulk + reconcile pass).
        assert_eq!(pool.stats().migrated_bytes(), 2 * 2 * 512);
    }

    /// A stripe of `bytes` on node 1 (stripe 0 sits on node 0) filled with a
    /// distinct value per word, under the given CAS-word layout.
    fn patterned_stripe(
        layout: Option<(u64, u64)>,
        bytes: u64,
    ) -> (MemoryPool, Arc<StripeDirectory>, Vec<u8>) {
        let pool = striped_pool(2);
        let bases = [0, 1].map(|mn| pool.reserve_on(mn, bytes).unwrap());
        let dir = StripeDirectory::new(&bases, bytes);
        let dir = match layout {
            Some((stride, offset)) => dir.with_cas_words(stride, offset),
            None => dir,
        };
        let pattern: Vec<u8> = (1..=bytes / 8)
            .flat_map(|w| (w << 20).to_le_bytes())
            .collect();
        pool.connect().write(bases[1], &pattern);
        (pool, Arc::new(dir), pattern)
    }

    fn word_at(bytes: &[u8], w: usize) -> u64 {
        u64::from_le_bytes(bytes[w * 8..w * 8 + 8].try_into().unwrap())
    }

    #[test]
    fn commit_poisons_exactly_the_words_clients_cas() {
        // 200 records of 40 bytes: the second 4 KiB chunk starts 16 bytes
        // into a record, so the mask must go by stripe offset.
        const BYTES: u64 = 8_000;
        for (layout, stride) in [(Some((40, 0)), 40), (Some((40, 16)), 40), (None, 8)] {
            let offset = layout.map_or(0, |(_, offset)| offset);
            let (pool, dir, pattern) = patterned_stripe(layout, BYTES);
            let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
            let client = pool.connect();
            let job = MoveJob {
                stripe: 1,
                src: 1,
                dst: 0,
            };
            let src = dir.current(1);
            assert!(engine.begin(&client, &job).unwrap());
            // The stripe locks live on node 0: every CAS node 1 serves
            // during the commit is one of the sweep's.
            let before = pool.stats().node_snapshots()[1].cas;
            engine.commit(&client, &job).unwrap();
            assert_eq!(
                pool.stats().node_snapshots()[1].cas - before,
                BYTES / stride,
                "layout {layout:?}"
            );
            // Every word arrived, the swapped ones by the value they held…
            assert_eq!(client.read(dir.current(1), BYTES as usize), pattern);
            // …and the vacated copy reads as the marker exactly there.
            let vacated = client.read(src, BYTES as usize);
            for w in 0..(BYTES / 8) as usize {
                let expected = if (w as u64 * 8) % stride == offset {
                    RECONCILE_POISON
                } else {
                    word_at(&pattern, w)
                };
                assert_eq!(
                    word_at(&vacated, w),
                    expected,
                    "word {w}, layout {layout:?}"
                );
            }
        }
    }

    #[test]
    fn a_cas_racing_the_sweep_is_carried_or_refused_never_swallowed() {
        const BYTES: u64 = 800;
        let (pool, dir, pattern) = patterned_stripe(Some((40, 0)), BYTES);
        let client = pool.connect();
        let src = dir.current(1);
        let targets: Vec<usize> = (0..(BYTES / 8) as usize)
            .filter(|w| dir.is_cas_word(*w as u64 * 8))
            .collect();
        assert_eq!(targets.len(), 20);
        // The pass has READ the chunk; before its swaps go out, a client's
        // CAS lands on the CAS word of record 3 — and a plain write on the
        // data word behind it, which nothing chases.
        let mut buf = pattern.clone();
        let raced = targets[3];
        let old = word_at(&pattern, raced);
        assert_eq!(client.cas(src.add(raced as u64 * 8), old, 0xabcd), old);
        client.write(src.add(raced as u64 * 8 + 8), &7u64.to_le_bytes());
        let mut observed = vec![0u64; 8];
        MigrationEngine::poison_sweep(&client, src, &mut buf, &targets, &mut observed).unwrap();
        // Carried: the chunk about to be written to the destination holds
        // the racing CAS's value; every other word is as it was read.
        for w in 0..(BYTES / 8) as usize {
            let expected = if w == raced {
                0xabcd
            } else {
                word_at(&pattern, w)
            };
            assert_eq!(word_at(&buf, w), expected, "word {w}");
        }
        // Refused: a CAS arriving after the swap — even one expecting the
        // right value — observes the marker and changes nothing.
        for &w in &targets {
            let addr = src.add(w as u64 * 8);
            assert_eq!(client.cas(addr, word_at(&buf, w), 0x1234), RECONCILE_POISON);
            assert_eq!(client.read_u64(addr), RECONCILE_POISON);
        }
    }

    #[test]
    fn stale_jobs_are_skipped() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 4, 256);
        let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
        let client = pool.connect();
        // A job whose src no longer matches the directory is refused.
        let stale = MoveJob {
            stripe: 1,
            src: 0,
            dst: 1,
        };
        assert!(!engine.run_job(&client, &stale).unwrap());
        // A no-op job (src == dst) is refused too.
        let noop = MoveJob {
            stripe: 1,
            src: 1,
            dst: 1,
        };
        assert!(!engine.run_job(&client, &noop).unwrap());
        assert_eq!(pool.stats().stripe_cutovers(), 0);
    }

    #[test]
    fn vacated_homes_are_reused_on_ping_pong_migrations() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 2, 256);
        let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
        let client = pool.connect();
        let original = dir.current(1);

        // Move stripe 1 off node 1, then back.
        assert!(engine
            .run_job(
                &client,
                &MoveJob {
                    stripe: 1,
                    src: 1,
                    dst: 0
                }
            )
            .unwrap());
        let parked = dir.current(1);
        assert_eq!(parked.mn_id, 0);
        assert!(engine
            .run_job(
                &client,
                &MoveJob {
                    stripe: 1,
                    src: 0,
                    dst: 1
                }
            )
            .unwrap());
        // Returning to node 1 reuses the vacated range instead of leaking.
        assert_eq!(dir.current(1), original);
        // And a second round trip reuses the node-0 range as well.
        assert!(engine
            .run_job(
                &client,
                &MoveJob {
                    stripe: 1,
                    src: 1,
                    dst: 0
                }
            )
            .unwrap());
        assert_eq!(dir.current(1), parked);
    }

    #[test]
    fn copy_token_bucket_paces_the_pump_clock() {
        // Move one 4 KiB stripe twice through the engine (bulk + reconcile
        // copies), once unthrottled and once at a tight byte rate: the
        // throttled pump must stall for at least the copied bytes' worth of
        // simulated time, while the unthrottled run is far quicker.
        let run = |rate: u64| {
            let pool = striped_pool(2);
            let dir = make_directory(&pool, 2, 4096);
            let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
            engine.set_copy_rate(rate);
            assert_eq!(engine.copy_rate(), rate);
            let client = pool.connect();
            let t0 = client.now_ns();
            assert!(engine
                .run_job(
                    &client,
                    &MoveJob {
                        stripe: 1,
                        src: 1,
                        dst: 0
                    }
                )
                .unwrap());
            client.now_ns() - t0
        };
        let unthrottled = run(0);
        // 1 MB/s: the 2 copy passes × 4096 B × 2 (READ + WRITE) of budget
        // take ≥ 16 ms of simulated time minus the final chunk's grace.
        let throttled = run(1_000_000);
        let copied_bytes = 2 * 2 * 4096u64;
        let floor_ns = (copied_bytes - 2 * 4096) * 1_000; // all but the last chunks wait
        assert!(
            throttled >= floor_ns,
            "throttled pump must stall: {throttled} < {floor_ns}"
        );
        assert!(
            unthrottled * 10 < throttled,
            "rate limit must dominate the pump time: {unthrottled} vs {throttled}"
        );
    }

    #[test]
    fn copy_throttle_paces_successive_pumps_jointly() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 4, 4096);
        let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
        engine.set_copy_rate(1_000_000);
        let client = pool.connect();
        assert!(engine
            .run_job(
                &client,
                &MoveJob {
                    stripe: 1,
                    src: 1,
                    dst: 0
                }
            )
            .unwrap());
        let after_first = client.now_ns();
        // The bucket is shared state: a second job immediately after starts
        // against the budget the first one consumed.
        assert!(engine
            .run_job(
                &client,
                &MoveJob {
                    stripe: 3,
                    src: 1,
                    dst: 0
                }
            )
            .unwrap());
        assert!(client.now_ns() - after_first >= after_first / 2);
    }

    #[test]
    fn maybe_replan_is_idempotent_per_epoch() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 8, 256);
        let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
        assert_eq!(engine.maybe_replan(), 0);
        pool.add_node().unwrap();
        let planned = engine.maybe_replan();
        assert!(planned > 0);
        // Same epoch: the queue is not rebuilt (jobs keep draining).
        let client = pool.connect();
        let job = engine.next_job().unwrap();
        assert!(engine.begin(&client, &job).unwrap());
        assert_eq!(engine.maybe_replan(), planned - 1);
        engine.commit(&client, &job).unwrap();
    }
}
