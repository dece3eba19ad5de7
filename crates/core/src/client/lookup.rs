//! The lookup shared by `Get` and `Set` — both bucket READs behind one
//! doorbell, scanned for the key's live slot — and the client-side **hint
//! table** that lets a `Get` skip them: a hint names the key's *slot*, so a
//! hinted `Get` READs that one 40-byte slot instead of two 320-byte buckets,
//! and posts its object READ on the same ring, making a remote hit two READs
//! and one round trip (see the crate docs, *The one-round-trip `Get`*).  A
//! replacing `Set` goes further and skips the READ altogether: it CASes the
//! hinted slot from the hinted word, blind ([`super::publish`]).
//!
//! # What a blind CAS leans on
//!
//! A `Get` checks its hint against the slot it reads, then the object's key.
//! A CAS that *returns the hinted word* proves only that the slot holds that
//! word now — so the word must still mean the hinted key, which rests on one
//! invariant and one argument:
//!
//! * **Bump before free** (`round::Rule::BumpBeforeFree`, which every CAS a
//!   round posts is checked against).  A CAS that takes a key's word out of
//!   its slot — a sampling or bucket eviction, the failed-update
//!   invalidation sweep — bumps that key's
//!   [`crate::local_tier::CoherenceBoard`] epoch *before* the displaced
//!   object's blocks can be recycled (or, when the CAS is the client's own,
//!   drops or rewrites its own hint there and then).  A hint
//!   whose epoch still holds therefore names an object nobody has been free
//!   to reuse for another key.
//! * **ABA.**  An object address is named by one slot at a time.  While the
//!   hint's epoch holds, the hinted word can thus only *reappear* in the
//!   slot — after a replace or a relocation took it out, neither of which
//!   moves the key — as a live value of the same key, which is exactly what
//!   a replace may displace and free.
//!
//! What remains is the instant between reading the epoch and the CAS — and
//! another client's between its winning CAS and its bump — in which the key
//! can be evicted and the slot refilled: the exposure the unhinted replace
//! already has between its bucket READ and its CAS.  The board lives in one
//! process, like the local tier's coherence: hints must not be trusted
//! across processes until epochs live in pool memory (ROADMAP item 10(a)).
//!
//! The **miss memo** leans on the same epoch.  A `Get` that misses keeps
//! what its two-bucket scan decoded ([`MissMemo`]), and a `Set` of the key
//! as the client's next operation publishes from it instead of reading the
//! buckets again — while the key's board epoch and the stripe directory's
//! version are what they were before the miss's READs.  It chooses its slot
//! from the memo before posting anything, and an insert slot on the new
//! object's node takes the one-round fill: the insert CAS rides behind the
//! object WRITE on one doorbell (`round::Rule::Flush`).  Its CASes
//! are not blind: each expects a word the memo read (an empty or history
//! slot for an insert, the victim's word for a bucket eviction), so a slot
//! that changed fails it, and the next attempt reads the buckets.  The directory
//! version guards the memo's addresses, which after a stripe cutover name
//! the retired copy.  The epoch guards what no CAS can see: that the key is
//! still absent.  Every publish of the key bumps it — an insert as soon as
//! its CAS completes, ahead of the bump that ends its `Set` — so a key
//! another client filled since the miss refuses the memo, unless that
//! client's CAS has landed and its completion is still in flight.  Then the
//! insert lands in a second slot and the key lives twice.  A lookup serves
//! the first copy it finds and a replace updates that one alone, so the
//! other can be served again, stale, once the first is gone.  The unhinted
//! insert has the same exposure between its bucket READ and its CAS; the
//! memo adds to it only that return flight of the other client's CAS.  The
//! one-round fill adds nothing: its CAS leaves on the doorbell that follows
//! the epoch check, sooner than a looked-up one would.
//!
//! # What an object READ beside the slot leans on
//!
//! A hinted `Get` posts its object READ before the slot READ has vouched
//! for the hinted word.  When the object lives on the slot's node, both
//! travel one queue pair and execute in order: a hint that holds is the two
//! dependent READs in their usual order, minus the wait between them.  An
//! object off its slot's node — memory pressure after an `add_node` or a
//! `drain_node` leaves it there — travels another queue pair, and its READ
//! may execute before the slot READ.  It is then served only if the key's
//! board epoch, read again once both completions are out, still equals the
//! one the `Get` read before posting ([`object_read_trusted`]); a moved
//! epoch is a misprediction.
//!
//! The rule rests on one fact: a block comes back under the hinted word
//! only after its key's bump.  An object READ that landed early read the
//! block while the hinted word was in the slot — and nobody frees a block
//! a slot names — or while it was out and about to come back, the block
//! freed and published for the key again in between.  Every free of a
//! block a slot named bumps the key first: an eviction and the failed-update
//! sweep (bump before free), and a replace, which bumps once its CAS has won
//! and before it frees, since the free may hand the blocks back to the node
//! for any client to take ([`ditto_dm::StripedAllocator::free`]).  So a block that
//! came back moved the epoch before the slot READ, and the re-check refuses
//! what the early READ saw.  A relocation frees without a bump, but it
//! moves no value: its block held the key's current value, and comes back
//! under the hinted word only through a later publish of the key.  What
//! remains is the instant the blind CAS leans on too: another client's,
//! between its winning CAS and its bump.
//!
//! # What the epoch filter costs
//!
//! The filter is one relaxed load and a compare, and it saves a hint staled
//! in-process its wasted round trip.  What it costs is the hints it drops
//! that were *not* stale: board slots are hashed, so every key sharing the
//! written key's epoch loses its hint — and its local-tier entry — to the
//! same bump, and its next `Get` reads both buckets (three READs, 960 B)
//! where the hint would have read one slot (two READs, 360 B).  The board
//! therefore has one epoch per hint entry
//! ([`CoherenceBoard::DEFAULT_SLOTS`], asserted below): with 4 096 epochs
//! under this 131 072-entry table, 28 % of the `Get`-path hint probes of the
//! repo benchmark's two-client `tiered_skew` were filtered, two in three of
//! them for another key's write; with one epoch each, the 9 % whose key the
//! other client did update.  A client's own bumps never cost it a hint
//! ([`DittoClient::hint_epoch`]).  A stamp keeps the epoch modulo 2^19
//! ([`HINT_EPOCH_BITS`]): a hint is taken for current again only after
//! exactly a multiple of 524 288 bumps by other clients.

use super::evict::Eviction;
use super::round::{plan_round, Evictions, Plan};
use super::{DittoClient, SearchSlots, CAS_RETRY_BACKOFF_NS, MAX_RETRIES};
use crate::hash::fingerprint;
use crate::hashtable::SampleFriendlyHashTable;
use crate::local_tier::CoherenceBoard;
use crate::slot::{AtomicField, Slot, BUCKET_SIZE, SLOTS_PER_BUCKET, SLOT_SIZE};
use ditto_dm::{DmClient, DmResult, Phase, RemoteAddr};

/// Entries of a client's hint table: a power of two, 16 bytes each — 2 MiB
/// per client, a fifth of the FC cache's default budget.
const HINT_ENTRIES: usize = 1 << 17;
// One board epoch per hint entry (see the module docs, *What the epoch filter
// costs*): growing one without the other brings the shared epochs back.
const _: () = assert!(CoherenceBoard::DEFAULT_SLOTS == HINT_ENTRIES);
/// Ways of a hint-table set.  Keys whose hashes share the index bits share a
/// set; four ways keep the hints of up to four of them, where one entry kept
/// the last one's alone (ROADMAP item 10(b)).
const HINT_WAYS: usize = 4;
const HINT_SETS: usize = HINT_ENTRIES / HINT_WAYS;
const HINT_INDEX_BITS: u32 = HINT_SETS.trailing_zeros();
/// Hash bits a set's index and a way's tag tell keys apart by: enough for a
/// `Get`, which re-checks the slot's hash and the object's key.
const HINT_TAG_END: u32 = HINT_INDEX_BITS + u32::BITS;
/// The hash bits between the tag and the fingerprint byte, kept in the stamp
/// so that — with the fingerprint in the hinted word itself — a hint can be
/// matched on all 64 hash bits ([`HintTable::get_exact`]).
const HINT_HIGH_BITS: u32 = 9;
const _: () = assert!(HINT_TAG_END + HINT_HIGH_BITS + u8::BITS == u64::BITS);
/// Where a stamp holds them: right above the epoch.
const HINT_HIGH_MASK: u32 = ((1 << HINT_HIGH_BITS) - 1) << HINT_EPOCH_BITS;
/// Bits of a hint stamp left to the board epoch once the slot's place — one
/// bit of bucket, three of slot index — and the high hash bits are taken out
/// of its 32.  The two index bits the ways took came out of the epoch, which
/// is compared modulo 2^19 (it was 2^21 with one entry per set).
const HINT_EPOCH_BITS: u32 = 19;
const _: () = assert!(SLOTS_PER_BUCKET == 1 << (31 - HINT_HIGH_BITS - HINT_EPOCH_BITS));

/// What a client last knew of a key's slot: the slot's atomic word (which
/// names the object's node, address and size) and where the slot sits —
/// which of the key's two buckets, and which slot of that bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Hint {
    pub(super) word: u64,
    pub(super) secondary: bool,
    pub(super) slot: u8,
}

/// One way of a hint-table set.  `word == 0` (an empty slot's word, never
/// hinted) marks it vacant.  The low hash bits pick the set and the next 32
/// tag the way, so 47 hash bits tell keys apart for a `Get`: its hint is only
/// ever a guess checked against the freshly read slot, so an alias costs a
/// wasted round trip, never a wrong value.  A `Set` that CASes on the hinted
/// word without reading the slot has no such check and takes only a hint
/// that is its key's in all 64 bits.
#[derive(Clone, Copy, Default)]
struct HintEntry {
    word: u64,
    tag: u32,
    /// Bit 31: the slot sits in the secondary bucket.  Bits 28..31: its index
    /// in that bucket.  Bits 19..28: the key's hash bits 47..56.  Bits 0..19:
    /// the low bits of the [`crate::local_tier::CoherenceBoard`] epoch of the
    /// key's hash when the word was known current, less the client's own
    /// bumps ([`DittoClient::hint_epoch`]).
    stamp: u32,
}

/// 4-way set-associative `key hash → last slot word seen, and where`,
/// fixed-size and allocation-free after construction.  Each set is kept in
/// LRU order, most recently hit or noted first.
pub(super) struct HintTable {
    sets: Box<[[HintEntry; HINT_WAYS]]>,
}

impl HintTable {
    pub(super) fn new() -> Self {
        HintTable {
            sets: vec![[HintEntry::default(); HINT_WAYS]; HINT_SETS].into_boxed_slice(),
        }
    }

    fn index(hash: u64) -> usize {
        hash as usize & (HINT_SETS - 1)
    }

    fn tag(hash: u64) -> u32 {
        (hash >> HINT_INDEX_BITS) as u32
    }

    /// `hash`'s bits above the tag and below the fingerprint, placed as the
    /// stamp holds them.
    fn high(hash: u64) -> u32 {
        (((hash >> HINT_TAG_END) as u32) << HINT_EPOCH_BITS) & HINT_HIGH_MASK
    }

    /// The stamp of a slot's place at `epoch`, high hash bits left zero.
    fn stamp(secondary: bool, slot: u8, epoch: u64) -> u32 {
        (epoch as u32 & ((1 << HINT_EPOCH_BITS) - 1))
            | (slot as u32) << (HINT_EPOCH_BITS + HINT_HIGH_BITS)
            | (secondary as u32) << 31
    }

    /// The way of `hash`'s set that holds a hint tagged as `hash`'s.
    fn way(set: &[HintEntry; HINT_WAYS], hash: u64) -> Option<usize> {
        set.iter()
            .position(|entry| entry.word != 0 && entry.tag == Self::tag(hash))
    }

    /// The way holding `hash`'s hint, and the hint, unless the board has
    /// seen another client mutate the key's slot (`epoch` moved) since the
    /// hint was taken — which filters hints staled in-process before any
    /// verb is posted.
    fn find(&self, hash: u64, epoch: u64) -> Option<(usize, Hint)> {
        let set = &self.sets[Self::index(hash)];
        let way = Self::way(set, hash)?;
        let entry = set[way];
        let secondary = entry.stamp >> 31 == 1;
        let slot = (entry.stamp >> (HINT_EPOCH_BITS + HINT_HIGH_BITS)) as u8
            & (SLOTS_PER_BUCKET as u8 - 1);
        (entry.stamp & !HINT_HIGH_MASK == Self::stamp(secondary, slot, epoch)).then_some((
            way,
            Hint {
                word: entry.word,
                secondary,
                slot,
            },
        ))
    }

    /// The hint for `hash` at `epoch` ([`Self::find`]), moved to the front
    /// of its set: a hint that keeps paying is the last its set evicts.
    pub(super) fn get(&mut self, hash: u64, epoch: u64) -> Option<Hint> {
        let (way, hint) = self.find(hash, epoch)?;
        self.sets[Self::index(hash)][..=way].rotate_right(1);
        Some(hint)
    }

    /// [`Self::get`], narrowed to a hint taken for a key whose hash equals
    /// `hash` in all 64 bits: the stamp holds the nine the index and tag
    /// leave out, the hinted word's fingerprint byte the top eight.  It
    /// leaves the set's order alone, so that a `Set` may ask through `&self`.
    pub(super) fn get_exact(&self, hash: u64, epoch: u64) -> Option<Hint> {
        let (way, hint) = self.find(hash, epoch)?;
        let high = self.sets[Self::index(hash)][way].stamp & HINT_HIGH_MASK;
        (high == Self::high(hash) && AtomicField::decode(hint.word).fp == fingerprint(hash))
            .then_some(hint)
    }

    /// Records `hint` as current at `epoch`, at the front of `hash`'s set:
    /// in the way that held the key's hint, else a vacant one, else the
    /// least recently used.  Returns whether that displaced another key's
    /// hint.
    pub(super) fn put(&mut self, hash: u64, hint: Hint, epoch: u64) -> bool {
        let set = &mut self.sets[Self::index(hash)];
        let (way, displaced) = match Self::way(set, hash) {
            Some(way) => (way, false),
            None => match set.iter().position(|entry| entry.word == 0) {
                Some(vacant) => (vacant, false),
                None => (HINT_WAYS - 1, true),
            },
        };
        set[..=way].rotate_right(1);
        set[0] = HintEntry {
            word: hint.word,
            tag: Self::tag(hash),
            stamp: Self::stamp(hint.secondary, hint.slot, epoch) | Self::high(hash),
        };
        displaced
    }

    /// Drops `hash`'s hint; the other ways of its set stay as they are.
    pub(super) fn forget(&mut self, hash: u64) {
        let set = &mut self.sets[Self::index(hash)];
        if let Some(way) = Self::way(set, hash) {
            set[way].word = 0;
        }
    }
}

/// Whether `slot_addr` is one of the slots of the bucket at `bucket`.
pub(super) fn bucket_holds(bucket: RemoteAddr, slot_addr: RemoteAddr) -> bool {
    bucket.mn_id == slot_addr.mn_id
        && (bucket.offset..bucket.offset + BUCKET_SIZE as u64).contains(&slot_addr.offset)
}

/// Whether the slot whose leading bytes are `bytes` carries the atomic word
/// `word`.  (The raw word is compared, so `RECONCILE_POISON` — which no
/// remembered word equals — reads as changed without a special case.)
fn slot_word_is(bytes: &[u8], word: u64) -> bool {
    bytes[..8] == word.to_le_bytes()
}

/// Whether a hinted `Get` may serve the object READ it posted beside the
/// slot READ on node `slot_node`, the object living on `object_node` (see
/// the module docs, *What an object READ beside the slot leans on*): on the
/// slot's node the queue pair ordered it behind the slot READ; off it, only
/// if the key's board epoch read after both completions, `epoch_after`, is
/// still the `epoch_before` read before posting.
fn object_read_trusted(
    slot_node: u16,
    object_node: u16,
    epoch_before: u64,
    epoch_after: u64,
) -> bool {
    slot_node == object_node || epoch_before == epoch_after
}

/// One completed READ of the head of the slot at `slot_addr` into `buf` —
/// all 40 bytes for a hinted lookup, the 8-byte atomic word alone for a
/// local-tier lease revalidation — and whether the slot still carries `word`.
/// A match proves no publish, eviction or relocation CAS touched the slot
/// since `word` was seen there.  A faulted READ reads as changed: both
/// callers fall back to the full lookup, which has a fault budget.
pub(super) fn read_slot_word_is(
    dm: &DmClient,
    slot_addr: RemoteAddr,
    word: u64,
    buf: &mut [u8],
) -> bool {
    dm.try_read_into(slot_addr, buf).is_ok() && slot_word_is(buf, word)
}

/// What a lookup found.
pub(super) struct Lookup {
    /// Every slot decoded, primary bucket first — of a hinted lookup that
    /// held, the hinted slot alone; of a fill from its miss memo, the slots
    /// the miss decoded.
    pub(super) slots: SearchSlots,
    /// The key's live slot, if any.
    pub(super) found: Option<(RemoteAddr, Slot)>,
    /// The caller's hint held: it names `found` exactly as it is, and the
    /// found slot's object is already in `obj_buf`.
    pub(super) hint_held: bool,
}

impl Lookup {
    pub(super) fn new(slots: SearchSlots, found: Option<(RemoteAddr, Slot)>) -> Self {
        Lookup {
            slots,
            found,
            hint_held: false,
        }
    }
}

/// What a `Get` that missed on a full two-bucket scan saw, kept until the
/// client's next `Get` or `Set`: a `Set` of the same key may publish from it
/// instead of reading the buckets again ([`DittoClient::memo_slots`]); any
/// other `Get` or `Set` drops it.  Whatever runs in between — an eviction,
/// a migration pump — is left to the guards: a cutover moves the directory
/// version, and a slot it changed fails the CAS that expects the memo's word.
pub(super) struct MissMemo {
    pub(super) hash: u64,
    /// Both buckets' slots, primary first, as the scan decoded them.
    pub(super) slots: SearchSlots,
    /// The key's board epoch and the stripe directory's version, both read
    /// before the bucket READs.
    pub(super) board_epoch: u64,
    pub(super) dir_version: u64,
}

impl DittoClient {
    /// Bumps `hash`'s coherence-board epoch — after this client won a slot
    /// CAS on the key — keeping its own-bump ledger in step.
    pub(super) fn bump_board(&mut self, hash: u64) {
        self.board.bump(hash);
        let own = &mut self.own_bumps[self.board.slot(hash)];
        *own = own.wrapping_add(1);
    }

    /// The epoch hints of `hash` are stamped with and filtered by: of the
    /// `board_epoch` read off the board, the bumps *other* clients made.
    /// (The ledger wraps at 32 bits and a stamp keeps [`HINT_EPOCH_BITS`] of
    /// the difference, so the wrap cannot be seen.)
    pub(super) fn hint_epoch(&self, hash: u64, board_epoch: u64) -> u64 {
        board_epoch.wrapping_sub(u64::from(self.own_bumps[self.board.slot(hash)]))
    }

    /// Remembers `word`, read from the slot at `slot_addr`, as `hash`'s
    /// hint, current as of `hint_epoch`.
    pub(super) fn hint_note(
        &mut self,
        hash: u64,
        slot_addr: RemoteAddr,
        word: u64,
        hint_epoch: u64,
    ) {
        // Where the slot sits is read off its address under the live
        // directory, primary bucket first (the secondary's index costs a
        // second hash, and most slots are in the primary).
        let hint = [false, true].into_iter().find_map(|secondary| {
            let bucket = self.table.bucket_addr(self.hinted_bucket(hash, secondary));
            bucket_holds(bucket, slot_addr).then(|| Hint {
                word,
                secondary,
                slot: ((slot_addr.offset - bucket.offset) / SLOT_SIZE as u64) as u8,
            })
        });
        match hint {
            Some(hint) => {
                if self.hints.put(hash, hint, hint_epoch) {
                    self.stats.record_hint_displaced();
                }
            }
            // A stripe cutover moved the bucket since `slot_addr` was
            // translated: there is no place to name.
            None => self.hints.forget(hash),
        }
    }

    /// The hint a `Set` of `hash` may CAS on without reading the slot: the
    /// key's in all 64 hash bits, current as of the board epoch read here.
    pub(super) fn set_hint(&self, hash: u64) -> Option<Hint> {
        let hint_epoch = self.hint_epoch(hash, self.board.epoch(hash));
        self.hints.get_exact(hash, hint_epoch)
    }

    /// Where the slot `hint` names lives now: its place re-translated
    /// through the live stripe directory.
    pub(super) fn hinted_slot_addr(&self, hash: u64, hint: Hint) -> RemoteAddr {
        let bucket = self.hinted_bucket(hash, hint.secondary);
        self.table.slot_addr(bucket, hint.slot as usize)
    }

    fn hinted_bucket(&self, hash: u64, secondary: bool) -> u64 {
        if secondary {
            self.table.secondary_bucket(hash)
        } else {
            self.table.primary_bucket(hash)
        }
    }

    /// [`Self::hint_note`] for the `word` this client just CASed into the
    /// slot at `slot_addr`.
    pub(super) fn hint_cas_won(&mut self, hash: u64, slot_addr: RemoteAddr, word: u64) {
        let hint_epoch = self.hint_epoch(hash, self.board.epoch(hash));
        self.hint_note(hash, slot_addr, word, hint_epoch);
    }

    /// Looks `hash` up: posts READs of the primary and secondary buckets
    /// behind one doorbell per node, and scans the decoded slots (primary
    /// bucket first) for a live entry.  A `Get` holding a `hint` — with the
    /// key's board epoch it read before looking the hint up — first tries
    /// the one slot the hint names instead ([`Self::search_hinted`]) and only
    /// falls back to the buckets when that slot no longer holds the hinted
    /// word or the object READ beside it cannot be trusted.
    ///
    /// Without a hint both buckets are fetched (the RACE-style lookup the
    /// paper describes): behind a shared doorbell the second READ rides
    /// along almost for free, and misses plus secondary hits need it anyway.
    /// This trades one extra RNIC message per primary-bucket hit against the
    /// round trip a primary-first lookup pays on every other one.  The
    /// primary bucket is decoded the moment its completion arrives — while
    /// the secondary READ is still in flight — and a primary-bucket hit
    /// skips the secondary decode entirely (its completion is still drained;
    /// the READ consumed its message either way).
    ///
    /// The round is planned ([`plan_round`]): a `Set`'s object WRITE, the
    /// `object` bytes unsignalled and never waited for, rides it until they
    /// land, and so do the sample READ and history-id FAA of the eviction
    /// running ahead of it (`evs`).
    ///
    /// The lookup follows the migration redirect rules: bucket
    /// addresses translate through the live stripe directory, and the
    /// directory entries are re-checked after the fetch — a stripe cutover
    /// that raced the read triggers a retry against the new addresses.
    pub(super) fn search(
        &mut self,
        hash: u64,
        fp: u8,
        mut plan: Plan,
        object: &[u8],
        evs: &mut Evictions,
        hint: Option<(Hint, u64)>,
    ) -> DmResult<Lookup> {
        // A hint whose object sits off its slot's node, on a node leaving
        // the pool, is not taken: the migration relocates that object
        // without a bump, so the hint is all but stale, and a leaving node
        // gets no speculative READ.
        let hint = hint.filter(|&(hint, _)| {
            let object_node = AtomicField::decode(hint.word).object_addr().mn_id;
            self.topology.is_active(object_node)
                || self.hinted_slot_addr(hash, hint).mn_id == object_node
        });
        if let Some((hint, board_epoch)) = hint {
            let held = self.search_hinted(hash, fp, hint, board_epoch);
            self.stats.record_spec_read(held.is_none());
            match held {
                Some(lookup) => return Ok(lookup),
                None => self.hints.forget(hash),
            }
        }
        let primary = self.table.primary_bucket(hash);
        let secondary = self.table.secondary_bucket(hash);
        // The piggybacked object WRITE of `Set` rides along until a round's
        // verbs all complete cleanly; after that, retries (migration
        // redirects, taints) re-read the buckets alone.  An error anywhere
        // in a write-carrying round re-arms the WRITE: an unsignalled
        // rider's error completion carries no usable attribution here, and
        // re-posting an idempotent, still-unpublished object WRITE is
        // harmless (fault-free runs clear it on the first round, exactly
        // like the pre-fault code).
        // Token mismatches consume retry budget; reads that saw a stripe
        // reconcile's poison do not — that window is bounded by the
        // in-flight commit, and escaping with a poisoned ("all empty")
        // view would let the caller conclude a key is absent while its
        // entry is being carried to the stripe's new home.  Verb faults
        // burn a budget of their own so a fault storm cannot starve the
        // token-staleness retries (or vice versa).
        let mut attempt = 0;
        let mut fault_attempts = 0;
        'attempt: loop {
            let last = attempt + 1 >= MAX_RETRIES;
            let ptok = self.table.bucket_entry_token(primary);
            let stok = self.table.bucket_entry_token(secondary);
            let primary_addr = self.table.bucket_addr(primary);
            let secondary_addr = self.table.bucket_addr(secondary);
            // Address translation through the stripe directory is free in
            // simulated time, so the span is an instant (detail = attempt).
            let translate_ns = self.dm.now_ns();
            self.dm
                .record_span(Phase::Translate, translate_ns, translate_ns, attempt as u32);
            let mut slots = SearchSlots::new();
            let round = plan_round(&Plan {
                memo: None,
                hint: None,
                own: evs[0].as_deref().and_then(Eviction::riding),
                buckets: [primary_addr, secondary_addr],
                ..plan
            });
            let write_rides = plan.object.is_some() && !plan.written;
            let wr_primary = self.post_round(&round, object, evs).0 + u64::from(write_rides);
            // Wait for the *primary* bucket specifically: a slow
            // unsignalled WRITE queued ahead of it can push its
            // completion past the secondary's on a multi-node pool, so
            // the wr_id is matched rather than assuming arrival order.
            // Then decode while the secondary READ is (possibly) still
            // in flight — the CPU work hides behind the wire.  Error
            // completions (the rider WRITE's included — unsignalled
            // WQEs fault loudly) abort the round, whose stragglers are
            // drained so that the next round's polling starts from an
            // empty queue.
            let faulted = 'round: {
                let mut secondary_done = false;
                loop {
                    let completion = self.next_completion(evs).expect("bucket completion");
                    if let Err(e) = completion.status.check() {
                        let _ = self.drain_round(evs);
                        break 'round e;
                    }
                    if completion.wr_id == wr_primary {
                        break;
                    }
                    debug_assert_eq!(completion.wr_id, wr_primary + 1);
                    secondary_done = true;
                }
                if SampleFriendlyHashTable::bucket_tainted(&self.bucket_buf[..BUCKET_SIZE]) {
                    if self.drain_round(evs).is_ok() {
                        // The round's verbs all landed (an unsignalled
                        // WRITE that fails leaves an error completion), so
                        // poison retries re-read the buckets alone.
                        plan.written = true;
                    }
                    self.dm.advance_ns(CAS_RETRY_BACKOFF_NS);
                    continue 'attempt;
                }
                SampleFriendlyHashTable::decode_slots(
                    primary_addr,
                    &self.bucket_buf[..BUCKET_SIZE],
                    &mut slots,
                );
                self.charge_decode(SLOTS_PER_BUCKET);
                if let Some(found) = Self::find_live(&slots, hash, fp) {
                    // A primary-bucket hit never needs the secondary's
                    // bytes; its completion is drained (by now usually in
                    // the past, hidden behind the primary decode).
                    if let Err(e) = self.drain_round(evs) {
                        break 'round e;
                    }
                    plan.written = true;
                    if self.table.bucket_entry_token(primary) == ptok || last {
                        return Ok(Lookup::new(slots, Some(found)));
                    }
                    attempt += 1;
                    continue 'attempt;
                }
                if !secondary_done {
                    let completion = self.next_completion(evs).expect("bucket completion");
                    if let Err(e) = completion.status.check() {
                        let _ = self.drain_round(evs);
                        break 'round e;
                    }
                }
                if write_rides {
                    // A rider-WRITE error on a *different* node can land
                    // after both bucket completions; surface it now.
                    // Fault-free the queue is empty and this costs nothing.
                    if let Err(e) = self.drain_round(evs) {
                        break 'round e;
                    }
                    plan.written = true;
                }
                if SampleFriendlyHashTable::bucket_tainted(&self.bucket_buf[BUCKET_SIZE..]) {
                    self.dm.advance_ns(CAS_RETRY_BACKOFF_NS);
                    continue 'attempt;
                }
                SampleFriendlyHashTable::decode_slots(
                    secondary_addr,
                    &self.bucket_buf[BUCKET_SIZE..],
                    &mut slots,
                );
                self.charge_decode(SLOTS_PER_BUCKET);
                if (self.table.bucket_entry_token(primary) == ptok
                    && self.table.bucket_entry_token(secondary) == stok)
                    || last
                {
                    let found = Self::find_live(&slots, hash, fp);
                    return Ok(Lookup::new(slots, found));
                }
                attempt += 1;
                continue 'attempt;
            };
            // Whether the faulted round may be redone (books the back-off).
            fault_attempts += 1;
            if fault_attempts >= MAX_RETRIES || !self.dm.back_off_transient(&faulted) {
                return Err(faulted);
            }
        }
    }

    /// The hinted lookup: one READ of the 40-byte slot the hint names, its
    /// address re-translated through the stripe directory and the entry
    /// token re-checked exactly like a bucket READ's, and the READ of the
    /// object the hinted word names, on the same ring.  The hint holds
    /// iff the slot's atomic word still equals the hinted word (and the slot
    /// passes [`Self::find_live`]'s test) and the object READ may be
    /// trusted ([`object_read_trusted`]): `found` is then that fully decoded
    /// slot, as if the buckets had been scanned, and its object is already
    /// in `obj_buf`.  Anything else — a changed word, `RECONCILE_POISON`, a
    /// faulted READ, a moved token, a moved epoch of an object off the
    /// slot's node — is a misprediction (`None`): it cost one round trip,
    /// and the caller runs the unhinted lookup.  (Like `Set`'s replace, the
    /// hint takes the key to live in one slot: it names that slot, not the
    /// first of several a bucket scan would prefer.)
    ///
    /// An object on the slot's node travels the slot's queue pair behind
    /// it; one off it rings a second doorbell and may complete first.  The
    /// completions are consumed in the order they land, the slot decoded as
    /// soon as its own is out — while the object is still in flight, when
    /// it comes first.  Between the doorbell and the first poll the two
    /// READs' flight hosts the CPU work of the last parked pick
    /// ([`DittoClient::host_parked_pick`]).  `board_epoch` is the key's
    /// board epoch as the `Get` read it before posting.
    fn search_hinted(&mut self, hash: u64, fp: u8, hint: Hint, board_epoch: u64) -> Option<Lookup> {
        let bucket = self.hinted_bucket(hash, hint.secondary);
        let token = self.table.bucket_entry_token(bucket);
        let slot_addr = self.table.slot_addr(bucket, hint.slot as usize);
        let translate_ns = self.dm.now_ns();
        self.dm
            .record_span(Phase::Translate, translate_ns, translate_ns, 0);
        let object = AtomicField::decode(hint.word);
        let obj_addr = object.object_addr();
        if obj_addr.mn_id != slot_addr.mn_id {
            self.stats.record_spec_read_split();
        }
        let len = object.object_bytes() as usize;
        if self.obj_buf.len() < len {
            self.obj_buf.resize(len, 0);
        }
        let wr_slot = {
            let mut wq = self.dm.work_queue();
            let wr_slot = wq.post_read(slot_addr, &mut self.bucket_buf[..SLOT_SIZE], true);
            wq.post_read(obj_addr, &mut self.obj_buf[..len], true);
            wq.ring();
            wr_slot
        };
        self.host_parked_pick();
        // Both completions are consumed whatever they say — an errored slot
        // READ flushes nothing on another node's queue pair — and a fault on
        // either READ costs the hint, never the `Get`.
        let (mut found, mut object_ok) = (None, false);
        for _ in 0..2 {
            let completion = self.dm.poll_cq().expect("hinted READ completion");
            let ok = completion.status.is_ok();
            if completion.wr_id == wr_slot {
                found = (ok && slot_word_is(&self.bucket_buf, hint.word))
                    .then(|| self.decode_hinted(slot_addr, hash, fp))
                    .flatten();
            } else {
                debug_assert_eq!(completion.wr_id, wr_slot + 1);
                object_ok = ok;
            }
        }
        let trusted = object_read_trusted(
            slot_addr.mn_id,
            obj_addr.mn_id,
            board_epoch,
            self.board.epoch(hash),
        );
        let found = found
            .filter(|_| object_ok && trusted && self.table.bucket_entry_token(bucket) == token)?;
        let mut slots = SearchSlots::new();
        slots.push(found);
        Some(Lookup {
            slots,
            found: Some(found),
            hint_held: true,
        })
    }

    /// Decodes the hinted slot out of the head of `bucket_buf` and puts it
    /// to the test every scanned slot gets.
    fn decode_hinted(
        &self,
        slot_addr: RemoteAddr,
        hash: u64,
        fp: u8,
    ) -> Option<(RemoteAddr, Slot)> {
        let slot = Slot::from_bytes(&self.bucket_buf[..SLOT_SIZE]);
        self.charge_decode(1);
        Self::find_live(&[(slot_addr, slot)], hash, fp)
    }

    /// The slots `memo` holds, if it is `hash`'s and still trusted under the
    /// rule a hint is (see the module docs, *What a blind CAS leans on*):
    /// the key's board epoch and the directory version are what they were
    /// before the miss's bucket READs.
    pub(super) fn memo_slots(&self, memo: MissMemo, hash: u64) -> Option<SearchSlots> {
        (memo.hash == hash
            && self.board.epoch(hash) == memo.board_epoch
            && self.table.directory().version() == memo.dir_version)
            .then_some(memo.slots)
    }

    fn find_live(slots: &[(RemoteAddr, Slot)], hash: u64, fp: u8) -> Option<(RemoteAddr, Slot)> {
        slots
            .iter()
            .find(|(_, s)| s.atomic.is_object() && s.atomic.fp == fp && s.hash == hash)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::{
        object_read_trusted, Hint, HintTable, HINT_ENTRIES, HINT_EPOCH_BITS, HINT_HIGH_BITS,
        HINT_INDEX_BITS, HINT_TAG_END, HINT_WAYS,
    };
    use crate::cache::DittoCache;
    use crate::client::DittoClient;
    use crate::config::DittoConfig;
    use crate::hash::{fingerprint, fnv1a64};
    use crate::history::EvictionHistory;
    use crate::object;
    use crate::recovery::CrashPoint;
    use crate::slot::{AtomicField, SLOTS_PER_BUCKET, SLOT_SIZE};
    use ditto_algorithms::EXT_WORDS;
    use ditto_dm::stats::VerbKind;
    use ditto_dm::{DmConfig, RemoteAddr};

    fn small_cache() -> DittoCache {
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(1_000), DmConfig::default())
            .unwrap()
    }

    /// Times one `Get` of `key`, which must hit.
    fn timed_get(client: &mut DittoClient, key: &[u8]) -> u64 {
        let t0 = client.dm().now_ns();
        assert!(client.get(key).is_some());
        client.dm().now_ns() - t0
    }

    /// Times one `Set` of `key`.
    fn timed_set(client: &mut DittoClient, key: &[u8], value: &[u8]) -> u64 {
        let t0 = client.dm().now_ns();
        client.set(key, value);
        client.dm().now_ns() - t0
    }

    /// `key`'s current hint, as the next `Get` would look it up.
    fn hint_of(client: &DittoClient, key: &[u8]) -> Option<Hint> {
        let hash = fnv1a64(key);
        let epoch = client.hint_epoch(hash, client.board.epoch(hash));
        client.hints.find(hash, epoch).map(|(_, hint)| hint)
    }

    #[test]
    fn hint_table_is_epoch_filtered_modulo_2_pow_19() {
        let mut hints = HintTable::new();
        let (a, word) = (0xabcd_0000_1234_5678u64, 0x11u64);
        assert_eq!(hints.get(a, 7), None);
        // The slot's place — bucket and index — comes back as it went in.
        for secondary in [false, true] {
            for slot in 0..SLOTS_PER_BUCKET as u8 {
                let hint = Hint {
                    word,
                    secondary,
                    slot,
                };
                assert!(!hints.put(a, hint, 7), "a key's own way is no displacement");
                assert_eq!(hints.get(a, 7), Some(hint));
                // The board saw the key's slot mutate: the hint is filtered.
                assert_eq!(hints.get(a, 8), None);
                // The place and the high hash bits took thirteen of the
                // stamp's bits: the epoch is compared modulo 2^19, and in no
                // fewer bits than that.
                assert_eq!(hints.get(a, 7 + (1 << 19)), Some(hint));
                assert_eq!(hints.get(a, 7 + (1 << 18)), None);
            }
        }
        let last = (1 << HINT_EPOCH_BITS) - 1;
        let hint = Hint {
            word,
            secondary: true,
            slot: 5,
        };
        hints.put(a, hint, last);
        assert_eq!(hints.get(a, last), Some(hint));
        assert_eq!(hints.get(a, last + 1), None, "the wrap is a change too");
        assert_eq!(
            std::mem::size_of_val(&*hints.sets),
            HINT_ENTRIES * 16,
            "16 bytes per entry"
        );
    }

    #[test]
    fn hint_table_sets_keep_four_hints_in_lru_order() {
        let mut hints = HintTable::new();
        // Five keys of one set, told apart by their tags.
        let keys: Vec<u64> = (0..5u64)
            .map(|i| 0xabcd_0000_1234_5678 ^ (i << 40))
            .collect();
        assert!(keys
            .iter()
            .all(|&k| HintTable::index(k) == HintTable::index(keys[0])));
        let hint = |i: usize| Hint {
            word: 0x100 + i as u64,
            secondary: i % 2 == 1,
            slot: i as u8,
        };
        // Four keys of one set all keep their hints, the way a direct-mapped
        // table kept only the last one's.
        for (i, &k) in keys[..HINT_WAYS].iter().enumerate() {
            assert!(!hints.put(k, hint(i), 3), "key {i} took a vacant way");
        }
        for (i, &k) in keys[..HINT_WAYS].iter().enumerate() {
            assert_eq!(hints.get(k, 3), Some(hint(i)), "key {i}");
        }
        // Those Gets left key 3 the most recently hit and key 0 the least;
        // a hit on key 0 promotes it, leaving key 1 the least.
        assert_eq!(hints.get(keys[0], 3), Some(hint(0)));
        // A fifth key displaces the least recently hit hint, and says so.
        assert!(hints.put(keys[4], hint(4), 3));
        assert_eq!(hints.get(keys[1], 3), None);
        for i in [0, 2, 3, 4] {
            assert_eq!(hints.get(keys[i], 3), Some(hint(i)), "key {i}");
        }
        // The order is now 4 3 2 0 (the loop's hits), so a `get_exact`,
        // which must not promote, leaves key 0 the next to go.
        let _ = hints.get_exact(keys[0], 3);
        assert!(hints.put(keys[1], hint(1), 3));
        assert_eq!(hints.get(keys[0], 3), None);
        // Forgetting a key clears its way alone; the next note takes that
        // vacant way instead of displacing anyone.
        hints.forget(keys[3]);
        assert_eq!(hints.get(keys[3], 3), None);
        for i in [1, 2, 4] {
            assert_eq!(hints.get(keys[i], 3), Some(hint(i)), "key {i}");
        }
        assert!(!hints.put(keys[0], hint(0), 3));
        for i in [0, 1, 2, 4] {
            assert_eq!(hints.get(keys[i], 3), Some(hint(i)), "key {i}");
        }
        // A key's own note refreshes its way in place.
        assert!(!hints.put(keys[2], hint(3), 4));
        assert_eq!(hints.get(keys[2], 4), Some(hint(3)));
        // A key of another set touches none of this one's ways.
        let other = keys[0] ^ 1;
        assert_ne!(HintTable::index(other), HintTable::index(keys[0]));
        assert!(!hints.put(other, hint(0), 3));
        for i in [0, 1, 4] {
            assert_eq!(hints.get(keys[i], 3), Some(hint(i)), "key {i}");
        }
    }

    #[test]
    fn hashes_equal_in_their_low_47_bits_never_share_a_set_hint() {
        let mut hints = HintTable::new();
        let a = 0xabcd_0000_1234_5678u64;
        // A hint as the client leaves it: the word carries the key's
        // fingerprint, the hash's top byte.
        let hint = Hint {
            word: AtomicField::for_object(fingerprint(a), 1, RemoteAddr::new(0, 4096)).encode(),
            secondary: false,
            slot: 3,
        };
        hints.put(a, hint, 7);
        assert_eq!(hints.get_exact(a, 7), Some(hint));
        assert_eq!(hints.get_exact(a, 8), None, "epoch-filtered like any hint");
        // 15 bits of set index, 32 of tag, 9 in the stamp, 8 of fingerprint.
        assert_eq!(
            (
                HINT_INDEX_BITS,
                HINT_TAG_END - HINT_INDEX_BITS,
                HINT_HIGH_BITS
            ),
            (15, 32, 9)
        );
        // Every hash that differs from `a` in one bit above the 47 the index
        // and tag cover: a `Get`, which checks what it reads, takes the hint
        // as before; a `Set`, which would CAS on it blind, never does.
        for bit in 47..64 {
            let alias = a ^ (1 << bit);
            assert_eq!(hints.get(alias, 7), Some(hint), "bit {bit}");
            assert_eq!(hints.get_exact(alias, 7), None, "bit {bit}");
        }
        // Below that the `Get` filter tells them apart already.
        for bit in 0..47 {
            assert_eq!(hints.get(a ^ (1 << bit), 7), None, "bit {bit}");
        }
        assert_eq!(
            std::mem::size_of_val(&*hints.sets),
            HINT_ENTRIES * 16,
            "the nine bits came out of the stamp's epoch, not out of new space"
        );
    }

    #[test]
    fn own_bump_ledger_wraps_at_32_bits_and_still_matches_its_hint() {
        let cache = small_cache();
        let mut client = cache.client();
        let hash = fnv1a64(b"probe");
        let slot = client.board.slot(hash);
        assert_eq!(client.own_bumps.len(), client.board.slots());
        assert_eq!(std::mem::size_of_val(&client.own_bumps[slot]), 4);
        // As after 2^32 - 1 bumps of this slot by this client and five by
        // others: the board counts them in 64 bits, the ledger in 32.
        client.own_bumps[slot] = u32::MAX;
        let board_epoch = u64::from(u32::MAX) + 5;
        let before = client.hint_epoch(hash, board_epoch);
        let hint = Hint {
            word: 0x11,
            secondary: false,
            slot: 2,
        };
        client.hints.put(hash, hint, before);
        // The next own bump wraps the ledger to zero while the board moves
        // on.  The difference a stamp keeps does not move.
        client.bump_board(hash);
        assert_eq!(client.own_bumps[slot], 0);
        let after = client.hint_epoch(hash, board_epoch + 1);
        assert_ne!(before, after, "only a stamp's low bits agree");
        assert_eq!(client.hints.get(hash, after), Some(hint));
        // Another client's bump is seen through the wrapped ledger as before.
        assert_eq!(
            client
                .hints
                .get(hash, client.hint_epoch(hash, board_epoch + 2)),
            None
        );
    }

    #[test]
    fn hinted_get_reads_its_slot_and_the_object() {
        let cache = small_cache();
        let mut client = cache.client();
        // The publish CAS leaves the hint.
        client.set(b"probe", b"x");
        // (READs, WRITEs, messages, bytes) of one Get, hinted and not.
        let mut get = |hinted: bool| {
            if !hinted {
                client.hints.forget(fnv1a64(b"probe"));
            }
            let issued = cache.stats().spec_reads_issued();
            cache.pool().reset_stats();
            assert!(client.get(b"probe").is_some());
            assert_eq!(cache.stats().spec_reads_issued() - issued, hinted as u64);
            let node = cache.pool().stats().node_snapshots()[0];
            (node.reads, node.writes, node.messages, node.bytes)
        };
        let hinted = get(true);
        // The hinted Get's two READs shared one doorbell.
        let stats = cache.pool().stats();
        assert_eq!((stats.doorbells(), stats.batched_verbs()), (1, 2));
        let unhinted = get(false);
        assert_eq!(cache.stats().spec_reads_wasted(), 0);
        // The slot READ and the object READ, plus the `last_ts` WRITE —
        // against both buckets, the object and the WRITE without a hint.
        assert_eq!((hinted.0, hinted.1, hinted.2), (2, 1, 3));
        assert_eq!((unhinted.0, unhinted.1, unhinted.2), (3, 1, 4));
        // 40 bytes of slot instead of 640 of buckets.
        assert_eq!(unhinted.3 - hinted.3, 2 * 320 - SLOT_SIZE as u64);
    }

    #[test]
    fn hinted_get_is_one_round_trip() {
        let decode = DittoConfig::CPU_DECODE_SLOT_NS;
        // A one-block object, whose flight the slot's poll and decode
        // outlast, and a 1 KiB one, which hides them.
        for value in [&[1u8; 1][..], &[1u8; 1_024][..]] {
            let cache = small_cache();
            let mut client = cache.client();
            client.set(b"probe", value);
            let hint = hint_of(&client, b"probe").expect("the publish CAS leaves the hint");
            let object_bytes = AtomicField::decode(hint.word).object_bytes() as usize;
            cache.pool().reset_stats();
            let elapsed = timed_get(&mut client, b"probe");
            // One doorbell carrying two READs; the slot is polled and
            // decoded while the object is in flight; one more poll.
            let posting = DmConfig::DOORBELL_LATENCY_NS + 2 * DmConfig::VERB_ISSUE_NS;
            let slot = DmConfig::verb_latency_ns(VerbKind::Read, SLOT_SIZE);
            let object = DmConfig::verb_latency_ns(VerbKind::Read, object_bytes);
            let flight = object.max(slot + DmConfig::CQ_POLL_NS + decode);
            assert_eq!(
                elapsed,
                posting + flight + DmConfig::CQ_POLL_NS,
                "{object_bytes} B"
            );
            assert!(elapsed < 2 * DmConfig::READ_LATENCY_NS);
            assert_eq!(cache.pool().stats().node_snapshots()[0].reads, 2);
            let stats = cache.stats();
            assert_eq!(
                (stats.spec_reads_issued(), stats.spec_reads_wasted()),
                (1, 0)
            );
            // The hint is as it was: the next Get repeats the feat.
            assert_eq!(timed_get(&mut client, b"probe"), elapsed);
            assert_eq!(
                (stats.spec_reads_issued(), stats.spec_reads_wasted()),
                (2, 0)
            );
        }
    }

    #[test]
    fn stale_hint_costs_the_unhinted_get_plus_one_slot_round_trip() {
        let cache = small_cache();
        let (mut client, mut writer) = (cache.client(), cache.client());
        let hash = fnv1a64(b"probe");
        client.set(b"probe", b"old");
        let stale = hint_of(&client, b"probe").unwrap();
        let stale_object = AtomicField::decode(stale.word).object_bytes() as usize;

        // Another client replaces the value.  Its board bump filters
        // the reader's hint…
        writer.set(b"probe", b"new");
        assert_eq!(hint_of(&client, b"probe"), None);
        // …so this is what an unhinted Get costs…
        cache.pool().reset_stats();
        let unhinted = timed_get(&mut client, b"probe");
        let unhinted_reads = cache.pool().stats().node_snapshots()[0].reads;
        assert_eq!(unhinted_reads, 3);
        assert_eq!(cache.stats().spec_reads_issued(), 0);
        // …and this a Get misled by the stale word, re-stamped with the
        // current epoch as if the writer sat in another process the
        // board cannot see.
        let hint_epoch = client.hint_epoch(hash, client.board.epoch(hash));
        client.hints.put(hash, stale, hint_epoch);
        cache.pool().reset_stats();
        let t0 = client.dm().now_ns();
        assert_eq!(client.get(b"probe").as_deref(), Some(&b"new"[..]));
        let mispredicted = client.dm().now_ns() - t0;

        // The slot no longer held the hinted word: the Get went on as
        // without a hint, one completed round trip later, and the
        // object READ behind the slot READ was wasted with it.
        let slot = DmConfig::verb_latency_ns(VerbKind::Read, SLOT_SIZE);
        let object = DmConfig::verb_latency_ns(VerbKind::Read, stale_object);
        let posting = DmConfig::DOORBELL_LATENCY_NS + 2 * DmConfig::VERB_ISSUE_NS;
        let flight = object.max(slot + DmConfig::CQ_POLL_NS);
        let round_trip = posting + flight + DmConfig::CQ_POLL_NS;
        assert_eq!(mispredicted, unhinted + round_trip);
        let reads = cache.pool().stats().node_snapshots()[0].reads;
        assert_eq!(reads, unhinted_reads + 2);
        let stats = cache.stats();
        assert_eq!(
            (stats.spec_reads_issued(), stats.spec_reads_wasted()),
            (1, 1)
        );
        // The hit installed the fresh word: the next Get is hinted right.
        assert!(client.get(b"probe").is_some());
        assert_eq!(
            (stats.spec_reads_issued(), stats.spec_reads_wasted()),
            (2, 1)
        );
    }

    #[test]
    fn an_object_read_off_its_slots_node_is_trusted_only_under_an_unmoved_epoch() {
        // (slot node, object node, epoch before posting, epoch after both
        // completions) → whether the object READ may be served.
        let cases = [
            // One queue pair orders the object READ behind the slot READ,
            // so the epoch is not asked.
            ((0, 0, 7, 7), true),
            ((1, 1, 7, 8), true),
            // Off the slot's node the READ may have landed first: a moved
            // epoch may mean a recycled block, and serves nothing.
            ((1, 0, 7, 7), true),
            ((1, 0, 7, 8), false),
            ((0, 2, 7, 9), false),
        ];
        for ((slot, object, before, after), trusted) in cases {
            assert_eq!(
                object_read_trusted(slot, object, before, after),
                trusted,
                "slot on {slot}, object on {object}, epoch {before} → {after}"
            );
        }
    }

    #[test]
    fn a_moved_epoch_refuses_an_object_read_off_its_slots_node() {
        // Node 1 drains before anything migrates: its slots stay, every
        // object goes to node 0.
        let dm = DmConfig::default().with_memory_nodes(2);
        let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(2_000), dm).unwrap();
        let mut client = cache.client();
        cache.pool().drain_node(1).unwrap();
        let keys: Vec<[u8; 8]> = (0..64u64).map(u64::to_le_bytes).collect();
        for key in &keys {
            client.set(key, b"v");
        }
        let stats = cache.stats();
        let (mut off_node, mut on_node) = (0, 0);
        for key in &keys {
            let hash = fnv1a64(key);
            let hint = hint_of(&client, key).expect("the publish CAS leaves the hint");
            let off = client.hinted_slot_addr(hash, hint).mn_id == 1;
            // As if another client bumped the key between the epoch the Get
            // read before posting and the re-check after both completions.
            let moved = client.board.epoch(hash).wrapping_sub(1);
            let wasted = stats.spec_reads_wasted();
            let lookup = client
                .search(
                    hash,
                    fingerprint(hash),
                    Default::default(),
                    &[],
                    &mut [None, None],
                    Some((hint, moved)),
                )
                .unwrap();
            // Off the slot's node the hinted READs serve nothing: the lookup
            // read the buckets instead.  On it, the queue pair vouches.
            assert_eq!(lookup.hint_held, !off);
            assert_eq!(stats.spec_reads_wasted() - wasted, off as u64);
            assert_eq!(
                lookup.found.map(|(_, slot)| slot.atomic.encode()),
                Some(hint.word)
            );
            assert!(client.dm().poll_cq().is_none());
            if off {
                off_node += 1;
            } else {
                on_node += 1;
            }
        }
        assert!(off_node > 10 && on_node > 10, "{off_node} / {on_node}");
    }

    #[test]
    fn hinted_replace_is_one_round_trip() {
        // A one-block object, whose WRITE the CAS outlasts, and a 1 KiB one.
        for size in [1, 1_024] {
            let cache = small_cache();
            let mut client = cache.client();
            // The insert's publish CAS leaves the hint.
            client.set(b"probe", &vec![1u8; size]);
            let hint = hint_of(&client, b"probe").expect("the publish CAS leaves the hint");
            assert_eq!(client.set_hint(fnv1a64(b"probe")), Some(hint));
            let object_bytes = AtomicField::decode(hint.word).object_bytes() as usize;
            // (elapsed, doorbells, WQEs, messages) of one replace.
            let replace = |client: &mut DittoClient, fill: u8| {
                cache.pool().reset_stats();
                let elapsed = timed_set(client, b"probe", &vec![fill; size]);
                assert_eq!(client.get(b"probe"), Some(vec![fill; size]));
                let stats = cache.pool().stats();
                let sets = stats.node_snapshots()[0].messages - 3; // the hinted Get's
                (
                    elapsed,
                    stats.doorbells() - 1,
                    stats.batched_verbs() - 2,
                    sets,
                )
            };
            // One doorbell carrying the WRITE and the CAS, one poll — and the
            // `last_ts` WRITE of the update, which nobody waits for.
            let hinted = replace(&mut client, 2);
            let posting = DmConfig::DOORBELL_LATENCY_NS + 2 * DmConfig::VERB_ISSUE_NS;
            let write = DmConfig::verb_latency_ns(VerbKind::Write, object_bytes);
            let round_trip = posting + write.max(DmConfig::CAS_LATENCY_NS) + DmConfig::CQ_POLL_NS;
            assert_eq!(hinted, (round_trip, 1, 2, 3), "{object_bytes} B");
            // The hint follows the word: the next replace repeats the feat.
            assert_eq!(replace(&mut client, 3), hinted);
            let stats = cache.stats();
            assert_eq!(
                (stats.spec_publishes_issued(), stats.spec_publishes_wasted()),
                (2, 0)
            );
            // Without the hint: the WRITE beside both bucket READs, then the
            // CAS — two round trips, five messages.
            client.hints.forget(fnv1a64(b"probe"));
            let unhinted = replace(&mut client, 4);
            assert_eq!((unhinted.1, unhinted.2, unhinted.3), (1, 3, 5));
            assert!(unhinted.0 > round_trip + DmConfig::CAS_LATENCY_NS);
            assert_eq!(stats.spec_publishes_issued(), 2);
        }
    }

    /// Every slot of `key`'s two buckets that holds a live object of `key`,
    /// read forensically.
    fn live_slots_of(cache: &DittoCache, client: &DittoClient, key: &[u8]) -> Vec<RemoteAddr> {
        let (table, hash) = (cache.table.clone(), fnv1a64(key));
        [table.primary_bucket(hash), table.secondary_bucket(hash)]
            .into_iter()
            .flat_map(|bucket| table.bucket_slots(&client.dm, bucket))
            .filter(|(_, slot)| slot.atomic.is_object() && slot.hash == hash)
            .map(|(slot_addr, _)| slot_addr)
            .collect()
    }

    /// READs served over all memory nodes, and failed slot CASes.
    fn reads_and_lost_cases(cache: &DittoCache) -> (u64, u64) {
        let stats = cache.pool().stats();
        let reads = stats.node_snapshots().iter().map(|node| node.reads).sum();
        (reads, stats.contention().cas_retries)
    }

    /// B's fill of `key` up to its winning insert CAS and not a step further:
    /// a `Set` that has published but not reached the bump that ends it.
    fn insert_up_to_its_cas(client: &mut DittoClient, key: &[u8], value: &[u8]) {
        let hash = fnv1a64(key);
        let encoded = object::encode(key, value, client.use_extension, &[0; EXT_WORDS]);
        let obj_addr = client.alloc_with_eviction(0, encoded.len()).unwrap();
        client.dm.write(obj_addr, &encoded);
        let size_class = (encoded.len() / 64) as u8;
        let word = AtomicField::try_for_object(fingerprint(hash), size_class, obj_addr).unwrap();
        let lookup = client.search(
            hash,
            fingerprint(hash),
            Default::default(),
            &[],
            &mut [None, None],
            None,
        );
        let slots = lookup.unwrap().slots;
        let (slot_addr, observed) = client.choose_insert_slot(&slots).unwrap();
        assert!(client.install_new(slot_addr, &observed, word, hash));
    }

    /// A misses `probe`; then B, by `fill`, installs it with value `b"b"`
    /// while a stranger holds the key's first slot, so B's value goes into
    /// the second; then the first is empty again and A fills.  A's memo
    /// still says the key is absent and that slot free: trusted, it would
    /// install the key a second time.  B's insert CAS moved the key's board
    /// epoch, so A reads the buckets, finds B's value and replaces it.
    fn fill_after_another_clients_fill(fill: impl FnOnce(&mut DittoClient, &[u8])) {
        let cache = small_cache();
        let (mut a, mut b) = (cache.client(), cache.client());
        let (table, key) = (cache.table.clone(), b"probe");
        let primary = table.primary_bucket(fnv1a64(key));
        let [first, second] = [0, 1].map(|slot| table.slot_addr(primary, slot));
        assert!(a.get(key).is_none());
        let thief = cache.pool().connect();
        let ghost = AtomicField::for_history(0x11, EvictionHistory::pack_id(0, 1)).encode();
        assert_eq!(thief.cas(first, 0, ghost), 0);
        fill(&mut b, key);
        assert_eq!(live_slots_of(&cache, &b, key), [second]);
        assert_eq!(thief.cas(first, ghost, 0), ghost);
        let (reads, lost) = reads_and_lost_cases(&cache);
        a.set(key, b"a");
        let after = reads_and_lost_cases(&cache);
        assert_eq!(live_slots_of(&cache, &a, key), [second]);
        assert_eq!(after, (reads + 2, lost));
        assert_eq!(b.get(key).as_deref(), Some(&b"a"[..]));
        assert_eq!(
            cache.pool().resident_object_bytes(0),
            a.referenced_object_bytes_on(0)
        );
    }

    #[test]
    fn a_miss_memo_another_clients_fill_staled_is_refused() {
        fill_after_another_clients_fill(|b, key| {
            assert!(b.get(key).is_none());
            b.set(key, b"b");
        });
    }

    #[test]
    fn a_miss_memo_is_refused_between_another_clients_insert_cas_and_its_sets_end() {
        fill_after_another_clients_fill(|b, key| insert_up_to_its_cas(b, key, b"b"));
    }

    /// A misses `probe`; then a stranger, whom the board does not see, takes
    /// the empty slot A's memo will choose.  The memo is trusted, so A's
    /// fill posts its one round; its insert CAS loses with the object
    /// written, and A goes on through the lookup into the next slot — or,
    /// armed, dies right there at `AfterObjectWrite`, the first crash point
    /// past the round.
    #[test]
    fn a_one_round_fill_that_loses_its_insert_cas_goes_on_through_the_lookup() {
        for crash in [false, true] {
            let config = DittoConfig::with_capacity(1_000).with_crash_recovery_journal(true);
            let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
            let mut a = cache.client();
            let (table, key) = (cache.table.clone(), b"probe");
            let primary = table.primary_bucket(fnv1a64(key));
            let [first, second] = [0, 1].map(|slot| table.slot_addr(primary, slot));
            assert!(a.get(key).is_none());
            let ghost = AtomicField::for_history(0x11, EvictionHistory::pack_id(0, 1)).encode();
            assert_eq!(cache.pool().connect().cas(first, 0, ghost), 0);
            if crash {
                a.arm_set_crash(CrashPoint::AfterObjectWrite);
            }
            let (reads, lost) = reads_and_lost_cases(&cache);
            let pool = cache.pool().stats();
            let (doorbells, unsignalled) = (pool.doorbells(), pool.unsignalled_wqes());
            a.set(key, b"a");
            assert_eq!(a.crashed(), crash);
            // The round's WRITE went out unsignalled, and never again.
            assert_eq!(pool.unsignalled_wqes(), unsignalled + 1);
            if crash {
                // Nothing references the written object: recovery frees it.
                let id = a.dm().client_id();
                drop(a);
                let mut b = cache.client();
                assert!(b.recover_crashed_client(id).recovered_bytes > 0);
                assert!(b.get(key).is_none());
                assert_eq!(cache.pool().resident_object_bytes(0), 0);
                continue;
            }
            // One lost CAS, then both bucket READs behind a doorbell of their
            // own.
            assert_eq!(reads_and_lost_cases(&cache), (reads + 2, lost + 1));
            assert_eq!(pool.doorbells(), doorbells + 2);
            assert_eq!(live_slots_of(&cache, &a, key), [second]);
            assert_eq!(a.get(key).as_deref(), Some(&b"a"[..]));
            assert_eq!(
                cache.pool().resident_object_bytes(0),
                a.referenced_object_bytes_on(0)
            );
        }
    }

    #[test]
    fn a_stripe_cutover_between_a_miss_and_its_fill_forces_the_lookup() {
        let cache = || {
            let dm = DmConfig::default().with_memory_nodes(2);
            DittoCache::with_dedicated_pool(DittoConfig::with_capacity(2_000), dm).unwrap()
        };
        // Whether an add_node moves a key's primary bucket: a dry run on a
        // twin cache.
        let moved = {
            let twin = cache();
            let table = twin.table.clone();
            let before: Vec<u16> = (0..table.num_buckets())
                .map(|bucket| table.node_of_bucket(bucket))
                .collect();
            twin.pool().add_node().unwrap();
            twin.pump_migration();
            move |key: &[u8]| {
                let bucket = table.primary_bucket(fnv1a64(key));
                table.node_of_bucket(bucket) != before[bucket as usize]
            }
        };
        let key = (0..)
            .map(|i| format!("key{i}").into_bytes())
            .find(|key| moved(key))
            .unwrap();
        let cache = cache();
        let mut client = cache.client();
        assert!(client.get(&key).is_none());
        cache.pool().add_node().unwrap();
        assert!(cache.pump_migration().stripes_moved > 0);
        // The memo's slots name the key's buckets where they were: trusted,
        // the insert CAS would go to the retired copy and lose to its
        // poison.  The directory moved on, so the fill reads the buckets.
        let (reads, lost) = reads_and_lost_cases(&cache);
        client.set(&key, b"moved");
        assert_eq!(reads_and_lost_cases(&cache), (reads + 2, lost));
        assert_eq!(live_slots_of(&cache, &client, &key).len(), 1);
        assert_eq!(client.get(&key).as_deref(), Some(&b"moved"[..]));
    }

    #[test]
    fn stale_set_hint_costs_the_unhinted_set_plus_one_round_trip() {
        let cache = small_cache();
        let (mut client, mut writer) = (cache.client(), cache.client());
        let hash = fnv1a64(b"probe");
        client.set(b"probe", b"v1");
        // Another client replaces the value.  Its board bump filters the
        // hint, so this is what an unhinted replace costs…
        writer.set(b"probe", b"v2");
        assert_eq!(client.set_hint(hash), None);
        let unhinted = timed_set(&mut client, b"probe", b"v3");
        let stats = cache.stats();
        assert_eq!(stats.spec_publishes_issued(), 0);
        // …and this a replace misled by the word it left then, stale since
        // the writer's next replace but re-stamped with the current epoch as
        // if the writer sat in another process the board cannot see.
        let stale = hint_of(&client, b"probe").unwrap();
        writer.set(b"probe", b"v4");
        let hint_epoch = client.hint_epoch(hash, client.board.epoch(hash));
        client.hints.put(hash, stale, hint_epoch);
        cache.pool().reset_stats();
        let mispredicted = timed_set(&mut client, b"probe", b"v5");
        assert_eq!(
            (stats.spec_publishes_issued(), stats.spec_publishes_wasted()),
            (1, 1)
        );
        // The CAS did not return the hinted word: the Set went on as
        // without a hint, one round trip later — a doorbell, the CAS's
        // issue, flight and poll; the WRITE merely moved off the lookup's
        // doorbell onto that one — and published the right value over the
        // writer's, whose object it freed.
        let round_trip = DmConfig::DOORBELL_LATENCY_NS
            + DmConfig::VERB_ISSUE_NS
            + DmConfig::CAS_LATENCY_NS
            + DmConfig::CQ_POLL_NS;
        assert_eq!(mispredicted, unhinted + round_trip);
        let node = cache.pool().stats().node_snapshots()[0];
        assert_eq!((node.writes, node.reads, node.cas), (2, 2, 2));
        assert_eq!(writer.get(b"probe").as_deref(), Some(&b"v5"[..]));
        assert_eq!(
            cache.pool().resident_object_bytes(0),
            client.referenced_object_bytes_on(0)
        );
        // The publish left the fresh word: the next replace is hinted right.
        client.set(b"probe", b"v6");
        assert_eq!(
            (stats.spec_publishes_issued(), stats.spec_publishes_wasted()),
            (2, 1)
        );
        assert_eq!(writer.get(b"probe").as_deref(), Some(&b"v6"[..]));
    }
}
