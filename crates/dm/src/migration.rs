//! Online bucket-range migration: the live-resize protocol (§4.1's
//! elasticity story, completed).
//!
//! `add_node`/`drain_node` only change the pool's active set; the
//! hash-table stripes — and therefore the lookup message load — keep their
//! old layout.  This module adds the missing piece: a per-stripe migration
//! state machine that moves bucket ranges (and, driven by the cache layer,
//! their resident objects) onto the nodes their directory assigns them
//! after the resize, while clients keep reading and writing the table.
//!
//! # The per-stripe state machine
//!
//! ```text
//!   Idle ──commit: marker set──▶ Moving ──reconciled, flipped──▶ Committed
//!    ▲                                                              │
//!    └────────────────── next migration of the stripe ──────────────┘
//! ```
//!
//! * **Idle / Committed** — the stripe is fully live at the address in the
//!   [`StripeDirectory`]; no forwarding marker is set.  [`MigrationEngine::begin`]
//!   only checks that a job is still wanted: nothing is copied, readers and
//!   writers keep using the source, and the cache layer relocates the
//!   stripe's resident objects.
//! * **Moving** — [`MigrationEngine::commit`] claims the stripe by setting
//!   its *forwarding marker* (the destination base) with a compare-exchange
//!   from "none", immediately before its first chunk READ: from then on a
//!   reconcile may have read the stripe.  The marker is also what keeps
//!   pumpers apart — a second commit of the stripe loses the exchange and
//!   moves nothing — so no lock is taken.  Readers and writers still use the
//!   **source**, the single source of truth.  The reconcile moves the stripe
//!   in one pass: every source word a client may CAS is CAS-swapped to
//!   [`RECONCILE_POISON`] as its value is carried to the destination, and
//!   the words in between ride the same chunk READ → WRITE (see the
//!   constant's docs for why a plain copy is not enough for the former and
//!   is for the latter).
//! * **commit** — the directory entry flips to the destination and the
//!   pool's resize epoch bumps (the *migration epoch* piggybacks on it), so
//!   every client revalidates its placement snapshot and follows the
//!   redirect.  A reconcile that fails instead — a verb out of retries, in
//!   practice a fail-stopped node — puts back every source word it poisoned
//!   and clears the marker: the stripe is as the commit found it, and a
//!   later commit starts over.
//!
//! Nothing is copied ahead of the commit: no reader looks at the
//! destination before the flip, so an earlier copy would only write bytes
//! the reconcile overwrites.
//!
//! **Known gap: a pumper that dies mid-commit is not recovered.**  Nothing
//! takes its claim back, so the stripe stays `Moving` and no later commit
//! can move it.  Nothing could repair its source either: the values of the
//! words it had poisoned lived only in the dead pass (a second pass would
//! read the poison and carry it as a value).  No crash point sits inside a
//! commit, and `ditto_core`'s crash recovery does not cover this case.
//!
//! # Client redirect rules
//!
//! 1. Translate bucket indices through the [`StripeDirectory`] on every
//!    access — one relaxed atomic load per bucket in steady state.
//! 2. After reading buckets, re-check their stripes' directory entries;
//!    if an entry changed (a cutover committed mid-lookup), retry the
//!    lookup against the new addresses.
//! 3. A slot CAS that took effect against a non-empty word read off the
//!    live copy needs no judgement: it landed either on the live copy or
//!    before the reconcile's swap, which carried it.  A CAS that changes
//!    which *record* a word belongs to also writes the record's other words
//!    (the hash table's key hash), which a reconcile carries only by its
//!    chunk READ — possibly taken between the CAS and those writes.  Such a
//!    writer lands the words after its CAS, then asks
//!    [`StripeDirectory::rekey_stale`]: while the marker is set, or the
//!    stripe committed since the operation's token, a reconcile may have
//!    carried the new word beside the old record.  The writer rolls
//!    forward: once the stripe has flipped it lands the words again at the
//!    word's live home ([`StripeDirectory::home_of`]), if the word there is
//!    still its own, and asks again.
//! 4. A read that observes [`RECONCILE_POISON`] is mid-cutover: do not
//!    act on the view (a poisoned bucket decodes as all-empty) —
//!    re-translate through the directory and re-read until the commit
//!    finishes flipping the stripe.
//!
//! # Where a stripe goes
//!
//! The directory owns each stripe's *assigned* node.  It starts as the
//! creation-time layout (stripe `s` on `active[s mod n]`,
//! [`PoolTopology::layout_node`]) and is rebalanced once per membership
//! change ([`StripeDirectory::reassign`], [`PoolTopology::rebalance`]): an
//! added node takes ⌊S/(n+1)⌋ stripes, each from the fullest node, and a
//! drained node's stripes each go to the emptiest, so every node holds
//! within one stripe of every other and no stripe moves that need not.
//! The [`MigrationPlanner`] diffs the directory's current placement against
//! those assignments into per-stripe [`MoveJob`]s; draining a node plans
//! every one of its stripes away, so pumping the plan to completion drains
//! the node **to empty** and [`crate::MemoryPool::remove_node`] can
//! decommission it.

use crate::addr::RemoteAddr;
use crate::client::DmClient;
use crate::error::DmResult;
use crate::obs::EventKind;
use crate::pool::MemoryPool;
use crate::topology::PoolTopology;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicU16, AtomicU64, AtomicUsize, Ordering};
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
/// observes the marker and fails.  A CAS that *succeeded* against a word
/// read off the live copy therefore provably landed on the live copy or
/// made it into the destination; without the marker the writer cannot tell
/// a carried write from a swallowed one, and cleaning up on the wrong guess
/// either loses the write or leaks the object it displaced.
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
/// READ → WRITE alone.  An update of such a word that lands on the source
/// *between the chunk's READ and the cutover* — a frequency-counter `FAA`,
/// a timestamp — is therefore not chased to the destination.  That is the
/// best-effort loss these advisory fields already have when the verb itself
/// faults; nothing a client CASes can be lost this way.  The one such word
/// that is not advisory names the record its CAS word belongs to (the hash
/// table's key hash); a write that changes it follows redirect rule 3 (see
/// the module docs).  With the default layout `(8, 0)` every word is
/// swapped.
///
/// Upper layers must (a) never store this value in a word a CAS can
/// target — the slot layer treats it as an impossible encoding and decodes
/// it as an empty slot — and (b) treat a CAS that *observes* it as "the
/// stripe is mid-cutover": back off and re-translate through the
/// directory.
pub const RECONCILE_POISON: u64 = u64::MAX;

/// Per-verb retry bound ([`DmClient::with_retry`]) during the commit's
/// reconcile pass.  Deliberately deep: a pass that gives up puts back the
/// words it poisoned and the stripe must be moved again from scratch, so
/// transient faults are retried essentially forever; only a fail-stopped
/// node gives up, at once.
const RECONCILE_VERB_RETRIES: usize = 64;

/// Migration state of one stripe (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationState {
    /// Never moved; the directory entry is authoritative.
    Idle,
    /// A commit has set the forwarding marker: its reconcile may have read
    /// the stripe.  Readers and writers still use the source.
    Moving,
    /// The last migration of this stripe committed; entry is authoritative.
    Committed,
}

impl MigrationState {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            MigrationState::Idle => "idle",
            MigrationState::Moving => "moving",
            MigrationState::Committed => "committed",
        }
    }
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
    /// Number of stripes currently `Moving` (fast-path short-circuit of
    /// [`StripeDirectory::rekey_stale`]).
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
    /// never moved).  A writer whose publish raced a commit follows its
    /// word to the stripe's new home through it
    /// ([`StripeDirectory::home_of`]).
    previous: Vec<AtomicU64>,
    stripe_bytes: u64,
    /// Record layout of the striped structure, as far as the cutover needs
    /// it: the words clients CAS sit at `cas_offset` in every `cas_stride`
    /// bytes of a stripe ([`StripeDirectory::with_cas_words`]).
    cas_stride: u64,
    cas_offset: u64,
    /// The node each stripe is assigned to ([`StripeDirectory::assigned_node`]).
    assigned: Vec<AtomicU16>,
    /// The active set `assigned` is balanced over (empty until the first
    /// [`StripeDirectory::reassign`]); its lock serialises reassignments.
    assigned_over: Mutex<Vec<u16>>,
}

impl StripeDirectory {
    /// Creates a directory over the given per-stripe base addresses, each
    /// `stripe_bytes` long, whose every 8-byte word may be the target of a
    /// client CAS (narrowed by [`StripeDirectory::with_cas_words`]).
    pub fn new(bases: &[RemoteAddr], stripe_bytes: u64) -> Self {
        StripeDirectory {
            entries: bases.iter().map(|a| AtomicU64::new(a.pack())).collect(),
            forwards: (0..bases.len()).map(|_| AtomicU64::new(0)).collect(),
            active_moves: AtomicUsize::new(0),
            version: AtomicU64::new(0),
            committed_at: (0..bases.len()).map(|_| AtomicU64::new(0)).collect(),
            previous: (0..bases.len()).map(|_| AtomicU64::new(0)).collect(),
            stripe_bytes,
            cas_stride: 8,
            cas_offset: 0,
            assigned: bases.iter().map(|a| AtomicU16::new(a.mn_id)).collect(),
            assigned_over: Mutex::new(Vec::new()),
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

    /// The node stripe `stripe` is assigned to: where it is, or where a
    /// pending move will take it.  Objects of the stripe allocate there.
    pub fn assigned_node(&self, stripe: u64) -> u16 {
        self.assigned[stripe as usize].load(Ordering::Acquire)
    }

    /// Rebalances the stripes' assigned nodes over `topology`'s active set
    /// ([`PoolTopology::rebalance`]) unless they already are: the work runs
    /// once per membership change, however many clients ask.  Starts from
    /// the previous assignments, not the current placement, so a resize
    /// that lands before the last one's moves are done re-plans from where
    /// those moves were headed.
    pub fn reassign(&self, topology: &PoolTopology) {
        let mut over = self.assigned_over.lock();
        if over.as_slice() == topology.active() {
            return;
        }
        let mut homes: Vec<u16> = (0..self.assigned.len() as u64)
            .map(|s| self.assigned_node(s))
            .collect();
        topology.rebalance(&mut homes);
        for (slot, home) in self.assigned.iter().zip(homes) {
            slot.store(home, Ordering::Release);
        }
        over.clear();
        over.extend_from_slice(topology.active());
    }

    /// The raw packed entry of stripe `stripe` — the token readers compare
    /// before and after a bucket fetch (redirect rule 2).
    pub fn entry_token(&self, stripe: u64) -> u64 {
        self.entries[stripe as usize].load(Ordering::Acquire)
    }

    /// The migration state of stripe `stripe`.
    pub fn state(&self, stripe: u64) -> MigrationState {
        let idx = stripe as usize;
        if self.forwards[idx].load(Ordering::Acquire) != 0 {
            MigrationState::Moving
        } else if self.committed_at[idx].load(Ordering::Acquire) != 0 {
            MigrationState::Committed
        } else {
            MigrationState::Idle
        }
    }

    /// Number of stripes currently moving.
    pub fn active_moves(&self) -> usize {
        self.active_moves.load(Ordering::Acquire)
    }

    /// The cutover version: bumped on every commit.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Claims `stripe` for a move to `dst_base`: sets its forwarding marker
    /// (state → `Moving`) if no move holds it, and returns whether this call
    /// won.  A reconcile claims immediately before its first READ of the
    /// stripe; the winner ends the move with [`Self::commit`] or
    /// [`Self::reopen`].
    pub fn begin_move(&self, stripe: u64, dst_base: RemoteAddr) -> bool {
        if self.forwards[stripe as usize]
            .compare_exchange(0, dst_base.pack(), Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.active_moves.fetch_add(1, Ordering::AcqRel);
        // Pairs with the fence in `rekey_stale`: either that judge sees the
        // marker, or the READs that follow see the words its writer landed.
        fence(Ordering::SeqCst);
        true
    }

    /// Clears the forwarding marker of `stripe` without a cutover (state →
    /// back to `Idle` or `Committed`): its reconcile failed and put back
    /// what it poisoned, so the source is still the live copy.
    pub fn reopen(&self, stripe: u64) {
        self.forwards[stripe as usize].store(0, Ordering::Release);
        self.active_moves.fetch_sub(1, Ordering::AcqRel);
    }

    /// Commits the move of `stripe`: the forwarding address becomes the
    /// entry, the version bumps, then the marker clears (state →
    /// `Committed`).  In that order, a judge that finds the marker clear or
    /// no move active also finds the cutover.
    pub fn commit(&self, stripe: u64) {
        let idx = stripe as usize;
        let dst = self.forwards[idx].load(Ordering::Acquire);
        debug_assert_ne!(dst, 0, "commit without begin_move");
        let vacated = self.entries[idx].swap(dst, Ordering::AcqRel);
        self.previous[idx].store(vacated, Ordering::Release);
        let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        self.committed_at[idx].store(version, Ordering::Release);
        self.forwards[idx].store(0, Ordering::Release);
        self.active_moves.fetch_sub(1, Ordering::AcqRel);
    }

    /// Whether the stripe-sized range at `base` holds `addr`.
    fn covers(&self, base: RemoteAddr, addr: RemoteAddr) -> bool {
        base.mn_id == addr.mn_id
            && addr.offset >= base.offset
            && addr.offset < base.offset + self.stripe_bytes
    }

    /// The stripe whose *current* range contains `addr`, if any.
    fn locate(&self, addr: RemoteAddr) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| self.covers(RemoteAddr::unpack(e.load(Ordering::Acquire)), addr))
    }

    /// Where the record word at `addr` lives now: at `addr` while a stripe
    /// holds that range, else at the same offset inside the current home of
    /// the stripe that vacated it last (the offset within a stripe is
    /// invariant across moves; of two stripes that vacated the same parked,
    /// then reused range, the later cutover wins).  `None` while that stripe
    /// is moving — its flip is pending — or when no stripe ever held `addr`.
    ///
    /// Used to follow a word across the reconcile that carried it (redirect
    /// rule 3).
    pub fn home_of(&self, addr: RemoteAddr) -> Option<RemoteAddr> {
        let (stripe, home) = match self.locate(addr) {
            Some(idx) => (idx, addr),
            None => {
                let (idx, base) = (0..self.previous.len())
                    .filter_map(|i| {
                        let raw = self.previous[i].load(Ordering::Acquire);
                        let base = RemoteAddr::unpack(raw);
                        (raw != 0 && self.covers(base, addr)).then_some((i, base))
                    })
                    .max_by_key(|&(i, _)| self.committed_at[i].load(Ordering::Acquire))?;
                (idx, self.current(idx as u64).add(addr.offset - base.offset))
            }
        };
        (self.forwards[stripe].load(Ordering::Acquire) == 0).then_some(home)
    }

    /// Whether a reconcile may have missed the words a writer landed beside
    /// `addr` after a CAS there changed which record the word belongs to
    /// (redirect rule 3) — asked once those words have landed.  `token` is
    /// the directory version captured when the operation computed `addr`.
    /// Stale while the stripe holding `addr` is moving (its reconcile may
    /// have READ the record first), once it cut over since `token` (the
    /// word was carried — or `addr` is a recycled parking range that
    /// belonged to a *different* stripe when the operation started, ABA),
    /// and when no stripe holds `addr`.
    pub fn rekey_stale(&self, addr: RemoteAddr, token: u64) -> bool {
        // Pairs with the fence in `begin_move`: either the marker is seen
        // here, or the reconcile's READs see the words the writer landed.
        fence(Ordering::SeqCst);
        // `commit` bumps the version before it drops `active_moves`.
        if self.active_moves.load(Ordering::Acquire) == 0 && self.version() == token {
            return false;
        }
        let Some(idx) = self.locate(addr) else {
            return true;
        };
        // The marker before the commit stamp: `commit` clears the marker
        // only after it flipped the entry and stamped `committed_at`.
        self.forwards[idx].load(Ordering::Acquire) != 0
            || self.committed_at[idx].load(Ordering::Acquire) > token
    }
}

/// One planned stripe move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveJob {
    /// Global stripe index.
    pub stripe: u64,
    /// Node the stripe lives on when the job was planned.
    pub src: u16,
    /// Node the directory assigns the stripe to.
    pub dst: u16,
}

/// Diffs current stripe placement against the directory's assignments into
/// [`MoveJob`]s.
pub struct MigrationPlanner;

impl MigrationPlanner {
    /// Rebalances `dir`'s assignments over `topology` if its membership
    /// changed ([`StripeDirectory::reassign`]) and plans a move for every
    /// stripe that does not sit on its assigned node.
    pub fn plan(dir: &StripeDirectory, topology: &PoolTopology) -> Vec<MoveJob> {
        dir.reassign(topology);
        (0..dir.num_stripes() as u64)
            .filter_map(|stripe| {
                let (src, dst) = (dir.current_node(stripe), dir.assigned_node(stripe));
                (src != dst).then_some(MoveJob { stripe, src, dst })
            })
            .collect()
    }
}

/// Drives planned [`MoveJob`]s through the per-stripe state machine.
///
/// The engine owns a job queue refreshed from the [`MigrationPlanner`]
/// whenever the pool's resize epoch moves.  [`MigrationEngine::begin`]
/// checks a job is still wanted; the cache layer then relocates the
/// stripe's resident objects; [`MigrationEngine::commit`] claims the stripe
/// ([`StripeDirectory::begin_move`]), moves it in one pass and cuts over.
/// The claim keeps pumpers apart; nothing takes a lock.
/// Destination ranges come from per-node **stripe parking**: pre-reserved
/// at engine creation (before object segments run the arena to capacity)
/// and refilled with every vacated source range, so repeated resizes —
/// even of a long-full node — neither leak arena nor fail for space.
pub struct MigrationEngine {
    pool: MemoryPool,
    dir: Arc<StripeDirectory>,
    /// Pending stripe moves (drained by pumps, possibly concurrently).
    jobs: Mutex<VecDeque<MoveJob>>,
    /// Resize epoch the current plan was computed against.
    planned_epoch: AtomicU64,
    /// Per-node pool of stripe-sized parking ranges: pre-reserved at
    /// creation (before object allocations can eat the arena) and refilled
    /// with every vacated source range, so incoming stripes always have a
    /// home even on a node that has long since run its arena to capacity.
    parking: Mutex<HashMap<u16, Vec<RemoteAddr>>>,
}

impl MigrationEngine {
    /// Creates an engine for the stripes in `dir`: reserves, on every
    /// initially-active node, enough stripe parking to absorb one drained
    /// peer's share of the bucket ranges.
    /// Reserving the parking *up front* matters — once the cache warms up,
    /// object segments run the bump arena to capacity and a drain would
    /// find no room for the incoming stripes.
    pub fn new(pool: &MemoryPool, dir: Arc<StripeDirectory>) -> DmResult<Self> {
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
            jobs: Mutex::new(VecDeque::new()),
            planned_epoch: AtomicU64::new(u64::MAX),
            parking: Mutex::new(parking),
        })
    }

    /// The stripe directory the engine migrates.
    pub fn directory(&self) -> &Arc<StripeDirectory> {
        &self.dir
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

    /// Whether `job` still wants running: its stripe still lives on
    /// `job.src`, which it is meant to leave (a plan superseded by a newer
    /// resize yields stale jobs).  Sends no verb and changes nothing — the
    /// stripe's bytes move in [`Self::commit`], and in between the cache
    /// layer relocates the stripe's resident objects.
    pub fn begin(&self, job: &MoveJob) -> bool {
        self.dir.current_node(job.stripe) == job.src && job.src != job.dst
    }

    /// Commits `job`: claims the stripe by setting its forwarding marker
    /// (state → `Moving`, [`StripeDirectory::begin_move`]) immediately
    /// before the reconcile's first chunk READ, moves the stripe in one
    /// reconcile pass, in which every source word clients CAS is swapped to
    /// [`RECONCILE_POISON`] as its value is carried to the destination (a
    /// slot CAS racing the pass is carried, or observes the poison and
    /// fails; it is never silently swallowed), flips the directory entry,
    /// parks the vacated source range for reuse and piggybacks the cutover
    /// on the pool's resize epoch.  Returns `false`, sending no verb, when
    /// the job is stale or another commit holds the stripe's claim.  A pass
    /// that fails re-opens the stripe at its source, as it found it, and
    /// returns the error.
    pub fn commit(&self, client: &DmClient, job: &MoveJob) -> DmResult<bool> {
        let Some(src_base) = self.move_stripe(client, job)? else {
            return Ok(false);
        };
        self.park(src_base);
        self.pool.stats().record_stripe_cutover();
        self.pool.bump_resize_epoch();
        Ok(true)
    }

    /// The claim, reconcile and flip of [`Self::commit`].  Returns the
    /// vacated source range, or `None` for a stale job or a lost claim.
    fn move_stripe(&self, client: &DmClient, job: &MoveJob) -> DmResult<Option<RemoteAddr>> {
        if !self.begin(job) {
            return Ok(None);
        }
        let dst_base = self.home_on(job.dst)?;
        if !self.dir.begin_move(job.stripe, dst_base) {
            self.park(dst_base);
            return Ok(None);
        }
        // Re-checked under the claim: a commit that flipped the stripe
        // between the check above and the claim made the job stale.  The
        // exchange acquires the `Release` clear of that commit's marker,
        // which follows its flip, so the re-check sees the flip.
        if !self.begin(job) {
            self.dir.reopen(job.stripe);
            self.park(dst_base);
            return Ok(None);
        }
        let src_base = self.dir.current(job.stripe);
        self.record_state(client, job.stripe, MigrationState::Moving);
        // Reconcile only fails after burning RECONCILE_VERB_RETRIES on one
        // verb — in practice a fail-stopped node.  It has put back what it
        // poisoned, so the source stays live and a later commit starts over.
        if let Err(e) = self.reconcile_stripe(client, src_base, dst_base) {
            self.dir.reopen(job.stripe);
            self.park(dst_base);
            self.record_state(client, job.stripe, self.dir.state(job.stripe));
            return Err(e);
        }
        self.dir.commit(job.stripe);
        self.record_state(client, job.stripe, MigrationState::Committed);
        Ok(Some(src_base))
    }

    /// Parks a stripe-sized range for the next stripe bound for its node.
    fn park(&self, range: RemoteAddr) {
        self.parking
            .lock()
            .entry(range.mn_id)
            .or_default()
            .push(range);
    }

    fn record_state(&self, client: &DmClient, stripe: u64, state: MigrationState) {
        self.pool.record_event(
            client.now_ns(),
            client.client_id(),
            EventKind::Migration { stripe, state },
        );
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

    /// Carries the stripe at `src` to `dst` chunk by chunk, each with its
    /// READ → WRITE, the words clients CAS ([`StripeDirectory::with_cas_words`])
    /// *through a CAS swap to [`RECONCILE_POISON`]* in between, so racing
    /// word CASes are linearised against the carry — see the constant's
    /// docs for why a plain copy is not enough for those words and is
    /// enough for the rest.  Holds no extra state: the caller holds the
    /// stripe's claim, which keeps other reconcile passes off the range
    /// (racing *clients* are exactly who the poison protocol is for).
    ///
    /// The pass keeps the whole stripe as carried, so when a verb gives up
    /// it can put back every word it poisoned ([`Self::unpoison`]).
    fn reconcile_stripe(
        &self,
        client: &DmClient,
        src: RemoteAddr,
        dst: RemoteAddr,
    ) -> DmResult<()> {
        let total = self.dir.stripe_bytes();
        let mut carried = vec![0u8; total as usize];
        // The chunk's words to swap (indices into the chunk), and what each
        // posted swap observed.
        let mut targets = Vec::with_capacity(COPY_CHUNK / 8);
        let mut observed = vec![0u64; crate::wqe::MAX_WQES];
        let mut copied = 0usize;
        while copied < total as usize {
            let take = (total as usize - copied).min(COPY_CHUNK);
            let chunk = &mut carried[copied..copied + take];
            // Picked by offset into the *stripe*: a chunk need not start on
            // a record boundary.
            targets.clear();
            targets.extend((0..take / 8).filter(|w| self.dir.is_cas_word((copied + w * 8) as u64)));
            let at = copied as u64;
            let pass = client
                .with_retry(RECONCILE_VERB_RETRIES, |c| {
                    c.try_read_into(src.add(at), chunk)
                })
                .and_then(|()| {
                    Self::poison_sweep(client, src.add(at), chunk, &targets, &mut observed)
                })
                .and_then(|()| {
                    client.with_retry(RECONCILE_VERB_RETRIES, |c| c.try_write(dst.add(at), chunk))
                });
            if let Err(e) = pass {
                self.unpoison(client, src, &carried[..copied + take]);
                return Err(e);
            }
            copied += take;
        }
        self.pool.stats().record_migrated_bytes(total);
        Ok(())
    }

    /// Puts back, into every word clients CAS in the first `carried.len()`
    /// bytes of the source stripe at `src`, the value a failed pass carried
    /// out of it.  Only words still holding [`RECONCILE_POISON`] change —
    /// one the pass never swapped fails the CAS and keeps its value — and no
    /// client CAS can have touched a poisoned word.  Best effort: a word
    /// these CASes cannot reach sits on a node that has lost it anyway.
    fn unpoison(&self, client: &DmClient, src: RemoteAddr, carried: &[u8]) {
        for (w, word) in carried.chunks_exact(8).enumerate() {
            let offset = (w * 8) as u64;
            if self.dir.is_cas_word(offset) {
                let value = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                let _ = client.with_retry(RECONCILE_VERB_RETRIES, |c| {
                    c.try_cas(src.add(offset), RECONCILE_POISON, value)
                });
            }
        }
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
            let faulted = client.drain_cq().is_err();
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
    /// under the stripe's claim — so the carried value is `expected`.
    fn poison_word(client: &DmClient, addr: RemoteAddr, mut expected: u64) -> DmResult<u64> {
        loop {
            let got = client.with_retry(RECONCILE_VERB_RETRIES, |c| {
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
            .map(|s| pool.reserve_on(topology.layout_node(s), bytes).unwrap())
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
        assert_eq!(dir.active_moves(), 0);

        let dst = pool.reserve_on(0, 256).unwrap();
        // A failed reconcile re-opens the stripe as it was.
        assert!(dir.begin_move(1, dst));
        assert_eq!(dir.state(1), MigrationState::Moving);
        assert_eq!(dir.active_moves(), 1);
        // The marker is the claim: a second move of the stripe loses it.
        assert!(!dir.begin_move(1, dst));
        assert_eq!(dir.active_moves(), 1);
        dir.reopen(1);
        assert_eq!(dir.state(1), MigrationState::Idle);
        assert_eq!(dir.active_moves(), 0);

        assert!(dir.begin_move(1, dst));
        // The entry still names the source until commit.
        assert_eq!(dir.current_node(1), 1);
        let v = dir.version();
        dir.commit(1);
        assert_eq!(dir.state(1), MigrationState::Committed);
        assert_eq!(dir.current(1), dst);
        assert_eq!(dir.active_moves(), 0);
        assert_eq!(dir.version(), v + 1);
    }

    #[test]
    fn rekey_stale_and_home_of_follow_a_word_across_a_move() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 2, 256);
        let token = dir.version();
        let src = dir.current(1);
        let addr = src.add(8);
        assert!(!dir.rekey_stale(addr, token));
        assert_eq!(dir.home_of(addr), Some(addr));

        let dst = pool.reserve_on(0, 256).unwrap();
        assert!(dir.begin_move(1, dst));
        // Moving: a key change's other words may already have been READ,
        // so it is stale; its word lives on the source until the flip.
        assert!(dir.rekey_stale(addr, token));
        assert_eq!(dir.home_of(addr), None);
        dir.commit(1);
        // The old source address belongs to no current stripe any more;
        // the word it held lives on at the same offset of the new home.
        assert!(dir.rekey_stale(addr, token));
        assert_eq!(dir.home_of(addr), Some(dst.add(8)));
        // The new home is clean once the token catches up.
        assert!(!dir.rekey_stale(dst.add(8), dir.version()));
        // Moving back, the word waits for that flip too.
        assert!(dir.begin_move(1, src));
        assert_eq!(dir.home_of(addr), None);
    }

    #[test]
    fn rekey_stale_rejects_recycled_ranges_aba() {
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
        assert!(dir.begin_move(1, dst));
        dir.commit(1);
        assert!(dir.begin_move(0, old_range_of_1));
        dir.commit(0);

        // The stalled writer's address now falls inside stripe 0's live
        // range, but ownership changed after the token was captured: the
        // write must be judged stale, and its word lives where it landed.
        assert!(dir.rekey_stale(stalled_addr, token));
        assert_eq!(dir.home_of(stalled_addr), Some(stalled_addr));
        // A fresh operation against the same range is clean.
        assert!(!dir.rekey_stale(stalled_addr, dir.version()));
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
            assert_eq!(job.dst, dir.assigned_node(job.stripe));
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
            assert!(engine.commit(&client, &job).unwrap());
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
        // Each stripe was copied once, by its reconcile pass.
        assert_eq!(pool.stats().migrated_bytes(), 2 * 512);
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
            assert!(engine.begin(&job));
            // Every CAS node 1 serves during the commit is one of the
            // sweep's.
            let before = pool.stats().node_snapshots()[1].cas;
            assert!(engine.commit(&client, &job).unwrap());
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
    fn a_failed_commit_puts_back_what_it_poisoned_and_reopens_the_stripe() {
        // Two chunks; the destination is dead, so the first chunk's WRITE
        // fails after its sweep poisoned the source.
        const BYTES: u64 = 8_000;
        let pool = MemoryPool::new(
            DmConfig::small()
                .with_memory_nodes(3)
                .with_fault_plan(crate::FaultPlan::seeded(1).with_node_fail_stop(2, 0)),
        );
        let bases = [0, 1].map(|mn| pool.reserve_on(mn, BYTES).unwrap());
        let dir = Arc::new(StripeDirectory::new(&bases, BYTES).with_cas_words(40, 0));
        let pattern: Vec<u8> = (1..=BYTES / 8)
            .flat_map(|w| (w << 20).to_le_bytes())
            .collect();
        let client = pool.connect();
        client.write(bases[1], &pattern);
        let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
        let epoch = pool.resize_epoch();
        let to_dead = MoveJob {
            stripe: 1,
            src: 1,
            dst: 2,
        };
        assert!(engine.commit(&client, &to_dead).is_err());
        // The stripe is as the commit found it: live at its source with
        // every word back, and no move in flight.
        assert_eq!(dir.state(1), MigrationState::Idle);
        assert_eq!(dir.active_moves(), 0);
        assert_eq!(dir.current(1), bases[1]);
        assert_eq!(client.read(bases[1], BYTES as usize), pattern);
        assert_eq!(pool.resize_epoch(), epoch);
        assert_eq!(pool.stats().stripe_cutovers(), 0);
        // The failed pass released its claim: a later commit wins it and
        // starts over, here to a live node.
        let to_live = MoveJob { dst: 0, ..to_dead };
        assert!(engine.commit(&client, &to_live).unwrap());
        assert_eq!(client.read(dir.current(1), BYTES as usize), pattern);
    }

    #[test]
    fn a_commit_that_loses_the_claim_moves_nothing_and_its_job_goes_stale() {
        const BYTES: u64 = 800;
        let (pool, dir, pattern) = patterned_stripe(Some((40, 0)), BYTES);
        let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
        let client = pool.connect();
        let job = MoveJob {
            stripe: 1,
            src: 1,
            dst: 0,
        };
        // Another pumper's commit of the stripe holds the claim.
        let winner_dst = pool.reserve_on(0, BYTES).unwrap();
        assert!(dir.begin_move(1, winner_dst));
        let verbs = pool.stats().node_snapshots();
        assert!(!engine.commit(&client, &job).unwrap());
        // The loser sent no verb, left the stripe's bytes where they were
        // and counted no second move.
        assert_eq!(pool.stats().node_snapshots(), verbs);
        assert_eq!(client.read(dir.current(1), BYTES as usize), pattern);
        assert_eq!(dir.state(1), MigrationState::Moving);
        assert_eq!(dir.active_moves(), 1);
        assert_eq!(pool.stats().stripe_cutovers(), 0);
        // Once the winner commits, the loser's job is stale.
        dir.commit(1);
        assert!(!engine.begin(&job));
        assert!(!engine.commit(&client, &job).unwrap());
        assert_eq!(dir.current(1), winner_dst);
        assert_eq!(dir.active_moves(), 0);
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
        assert!(!engine.commit(&client, &stale).unwrap());
        // A no-op job (src == dst) is refused too.
        let noop = MoveJob {
            stripe: 1,
            src: 1,
            dst: 1,
        };
        assert!(!engine.commit(&client, &noop).unwrap());
        assert_eq!(pool.stats().stripe_cutovers(), 0);
    }

    #[test]
    fn vacated_homes_are_reused_on_ping_pong_migrations() {
        let pool = striped_pool(2);
        let dir = make_directory(&pool, 2, 256);
        let engine = MigrationEngine::new(&pool, Arc::clone(&dir)).unwrap();
        let client = pool.connect();
        let original = dir.current(1);

        let hop = |src, dst| {
            let job = MoveJob {
                stripe: 1,
                src,
                dst,
            };
            engine.commit(&client, &job).unwrap()
        };

        // Move stripe 1 off node 1, then back.
        assert!(hop(1, 0));
        let parked = dir.current(1);
        assert_eq!(parked.mn_id, 0);
        assert!(hop(0, 1));
        // Returning to node 1 reuses the vacated range instead of leaking.
        assert_eq!(dir.current(1), original);
        // And a second round trip reuses the node-0 range as well.
        assert!(hop(1, 0));
        assert_eq!(dir.current(1), parked);
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
        assert!(engine.begin(&job));
        assert_eq!(engine.maybe_replan(), planned - 1);
        assert!(engine.commit(&client, &job).unwrap());
        // Committed by now, the job is stale: a second commit moves nothing.
        assert!(!engine.commit(&client, &job).unwrap());
    }
}
