//! The publish half of `Set`: the slot CAS — rolled forward across a stripe
//! move only when it changes which key the slot holds — and the three
//! shapes a publish takes — replacing the key's live slot, installing into an
//! empty or history slot, evicting a victim of a full bucket — plus the two
//! front doors past the lookup, one round each: a hinted replace, which waits
//! for its CAS ([`DittoClient::publish_front`]), and a fill right after its
//! key's miss, which returns once its round is rung
//! ([`DittoClient::post_fill`]).
//!
//! A cache may always miss, so a fill need not learn before it returns
//! whether its insert landed: its insert and the eviction it carried are
//! queued, and [`DittoClient::book_fill`] books them.  The crate docs list
//! what their completions do and which op kinds book them first (*What an
//! op leaves behind*), and the two rules that keep that window sound (*The
//! one-round fill*).

use super::evict::Eviction;
use super::round::{Op, Plan, Retire, Round};
use super::{Candidates, DittoClient, CAS_RETRY_BACKOFF_NS, MAX_RETRIES};
use crate::hash::{fingerprint, fnv1a64};
use crate::hashtable::SampleFriendlyHashTable;
use crate::object;
use crate::recovery::CrashPoint;
use crate::slot::{AtomicField, Slot, OFF_HASH, SLOT_SIZE};
use ditto_algorithms::AccessKind;
use ditto_dm::{Phase, RemoteAddr};
use std::ops::Range;
use std::sync::Arc;

/// Rounds a key-changing publish waits for the flip of a stripe whose
/// reconcile may have carried its word without its metadata
/// ([`DittoClient::settle_rekey`]), each a CAS back-off plus a yield to the
/// reconcile's thread.
const FLIP_WAIT_ROUNDS: usize = 256;

/// A one-round fill's insert, posted and not booked yet.
pub(super) struct PendingInsert {
    /// The insert slot and the word naming the new object.
    slot: RemoteAddr,
    new: u64,
    /// Whether the insert CAS found there the word the memo read: only if
    /// it executed and won.
    won: bool,
    /// The new object's allocation, freed should the insert have lost.
    object: (RemoteAddr, usize),
    /// The work-request ids of the object WRITE, the metadata WRITE and the
    /// insert CAS, and whether a poll has booked the CAS's completion.
    pub(super) wrs: Range<u64>,
    pub(super) cas_polled: bool,
    /// The stripe directory's version the ring was translated under, which
    /// a won insert's roll-forward judges staleness against.
    token: u64,
    /// The key's hint epoch right after the ring-time bump: a won insert's
    /// hint is current as of then, and another client's bump since filters
    /// it.
    hint_epoch: u64,
}

/// A slot's bytes as a publish that put `hash`'s key into it at `now`
/// leaves them: insert and access timestamps `now`, a frequency of one.  The
/// metadata a publish WRITEs is its part from [`OFF_HASH`] on.
pub(super) fn fresh_metadata(hash: u64, now: u64) -> [u8; SLOT_SIZE] {
    Slot {
        hash,
        insert_ts: now,
        last_ts: now,
        freq: 1,
        ..Slot::empty()
    }
    .to_bytes()
}

impl DittoClient {
    /// CASes a slot's atomic word from `expected` to `new` and returns
    /// whether it took effect.  Against a non-empty word read off the live
    /// copy — every caller's but [`Self::rekey_cas`]'s — that needs no
    /// judgement afterwards (redirect rule 3 of `ditto_dm::migration`): the
    /// CAS landed on the live copy, or before the poison swap of a reconcile,
    /// which carried it.
    pub(super) fn slot_cas(&mut self, slot_addr: RemoteAddr, expected: u64, new: u64) -> bool {
        match self.retry(|dm| dm.try_cas(slot_addr, expected, new)) {
            Ok(observed) if observed == expected => true,
            // Lost a race with another client's CAS on the same slot, or
            // the CAS kept faulting (NAK'd, never applied) or its node
            // fail-stopped: the caller re-reads and retries — or gives up —
            // through its usual bounded loop.
            _ => {
                self.record_failed_slot_cas();
                false
            }
        }
    }

    /// The publish CAS of a `Set` that changes which key the slot holds —
    /// an insert into an empty or history slot, a bucket eviction — and
    /// whether it landed.  Such a publish also writes the slot's metadata,
    /// above all the key `hash` that lookups and regret checks match on,
    /// and a stripe reconcile carries that only by its chunk READ, which may
    /// fall between the CAS and the write.  So a landed CAS is rolled
    /// forward until its metadata is where no reconcile can have missed it
    /// ([`Self::settle_rekey`]).
    ///
    /// A landed CAS bumps `hash`'s board epoch at once, ahead of the bump
    /// that ends the `Set`: another client's miss memo of the key, taken
    /// before this CAS, must be refused from here on, or its fill would
    /// install the key a second time (see [`super::lookup`]).
    fn rekey_cas(&mut self, slot_addr: RemoteAddr, expected: u64, new: u64, hash: u64) -> bool {
        if !self.slot_cas(slot_addr, expected, new) {
            return false;
        }
        self.rekey_landed(slot_addr, new, hash);
        true
    }

    /// What follows a key-changing publish CAS of `hash`'s word `new` that
    /// landed at `slot_addr` ([`Self::rekey_cas`]).  Whatever this client's
    /// FC cache still held for the slot was the previous key's — a bucket
    /// eviction's victim, scored already — and goes with it: the new key
    /// starts at the `freq` of one its metadata writes.
    fn rekey_landed(&mut self, slot_addr: RemoteAddr, new: u64, hash: u64) {
        self.bump_board(hash);
        self.write_fresh_metadata(slot_addr, hash);
        self.discard_accesses(slot_addr);
        self.settle_rekey(slot_addr, new, hash, self.mig_token);
    }

    /// Rolls forward a key-changing publish of the word `new` whose
    /// metadata landed at `slot_addr`, its addresses translated under the
    /// directory version `token` (redirect rule 3 of
    /// `ditto_dm::migration`): while [`StripeDirectory::rekey_stale`] says a
    /// reconcile may have carried the word without it, waits for the
    /// stripe's flip, then lands the metadata again at the word's live home
    /// ([`StripeDirectory::home_of`]) — unless the word there is no longer
    /// `new`, whose displacer wrote its own.  After [`FLIP_WAIT_ROUNDS`]
    /// without a flip the metadata stays where it landed, which the
    /// reconcile still carries unless its READ came first.
    ///
    /// [`StripeDirectory::rekey_stale`]: ditto_dm::StripeDirectory::rekey_stale
    /// [`StripeDirectory::home_of`]: ditto_dm::StripeDirectory::home_of
    pub(super) fn settle_rekey(&mut self, slot_addr: RemoteAddr, new: u64, hash: u64, token: u64) {
        let dir = Arc::clone(self.table.directory());
        let (mut addr, mut token) = (slot_addr, token);
        for _ in 0..FLIP_WAIT_ROUNDS {
            if !dir.rekey_stale(addr, token) {
                return;
            }
            let version = dir.version();
            let Some(home) = dir.home_of(addr) else {
                // The flip is pending: give the reconcile time to finish.
                self.dm.advance_ns(CAS_RETRY_BACKOFF_NS);
                std::thread::yield_now();
                continue;
            };
            if self.retry(|dm| dm.try_read_u64(home)).ok() != Some(new) {
                // Displaced since: the new owner wrote its own metadata.
                return;
            }
            self.write_fresh_metadata(home, hash);
            (addr, token) = (home, version);
        }
    }

    /// Books a failed slot CAS in the pool's contention accounting and
    /// backs off before the caller retries.
    pub(super) fn record_failed_slot_cas(&self) {
        self.dm.advance_ns(CAS_RETRY_BACKOFF_NS);
        let stats = self.dm.pool().stats();
        stats.record_cas_retry(CAS_RETRY_BACKOFF_NS);
    }

    pub(super) fn replace_existing(
        &mut self,
        slot_addr: RemoteAddr,
        slot: &Slot,
        new_atomic: AtomicField,
    ) -> bool {
        let expected = slot.atomic.encode();
        if expected == new_atomic.encode() {
            // Already installed — a migration cutover made a previous
            // attempt look failed and the retry found its own object.
            // Freeing "the old object" here would free the new one.
            return true;
        }
        // Journal the displaced allocation *before* the publish CAS: once
        // the CAS lands, a crash before the free below would otherwise
        // leak the old blocks with nothing recording them.
        self.journal_set_old(Some((
            slot.atomic.object_addr(),
            slot.atomic.object_bytes() as usize,
        )));
        if !self.slot_cas(slot_addr, expected, new_atomic.encode()) {
            return false;
        }
        self.finish_replace(slot_addr, slot.hash, slot.atomic, new_atomic, Some(slot));
        true
    }

    /// What follows a publish CAS that replaced `hash`'s word `old` with
    /// `new` in the slot at `slot_addr`, whichever door the CAS came
    /// through; `decoded` is the slot as the lookup read it, which the
    /// hinted publish never does.
    fn finish_replace(
        &mut self,
        slot_addr: RemoteAddr,
        hash: u64,
        old: AtomicField,
        new: AtomicField,
        decoded: Option<&Slot>,
    ) {
        self.hint_cas_won(hash, slot_addr, new.encode());
        if self.crash_fired(CrashPoint::AfterPublish) {
            // Crash-consistency test hook: die with the new value live and
            // the displaced old allocation never freed.
            return;
        }
        self.record_access(slot_addr, None);
        if let Some(slot) = decoded {
            // The extension words live with the object: the update's go to
            // the new one, not the one freed below.
            self.record_extension(slot, new.object_addr(), None, AccessKind::Update);
        }
        // Bump before free, ahead of the bump that ends the `Set`: the free
        // may release the displaced blocks to the node, where any client
        // can take them, and a hinted `Get` whose object READ landed before
        // its slot READ must see them come back only under a moved epoch
        // (see [`super::lookup`]).
        self.bump_board(hash);
        self.alloc
            .free(&self.dm, old.object_addr(), old.object_bytes() as usize);
    }

    /// The hinted front door: a `Set`'s first `round`, planned one round
    /// trip with no lookup ([`Shape::Hinted`](super::round::Shape::Hinted)).  It carries the WRITE of the
    /// `encoded` object, unsignalled, and behind it the CAS of the hinted
    /// slot from the hinted word to `new`, and waits for that CAS alone.
    /// Returns whether the CAS returned the hinted word, and whether the
    /// object's bytes landed.  One that did *is* the publish, finished like
    /// any replace ([`Self::slot_cas`] says why it needs no judgement,
    /// [`Self::finish_replace`]); anything else cost this round trip, and
    /// the `Set` goes on through the lookup.  (The other front door, the
    /// one-round fill, waits for nothing: [`Self::post_fill`].)
    pub(super) fn publish_front(
        &mut self,
        hash: u64,
        round: &Round,
        encoded: &[u8],
        new: AtomicField,
    ) -> (bool, bool) {
        let Op::Cas {
            addr: slot_addr,
            expected,
            ..
        } = round.verbs[1].op
        else {
            unreachable!("a hinted CAS rides behind its WRITE")
        };
        let old = AtomicField::decode(expected);
        self.span_since(Phase::Translate, self.dm.now_ns(), 0);
        // The hinted word names the allocation the CAS displaces; as in
        // `replace_existing` it is journalled before the CAS can land.
        self.journal_set_old(Some((old.object_addr(), old.object_bytes() as usize)));
        let publish_start = self.dm.now_ns();
        let (wr_write, observed) = self.post_round(round, encoded, &mut [None, None]);
        // An errored WRITE surfaces although unsignalled, and has flushed
        // the CAS behind it.
        let (mut landed, mut object_written) = (false, true);
        while let Some(completion) = self.next_completion(&mut [None, None]) {
            if completion.wr_id == wr_write + 1 {
                landed = completion.status.is_ok();
                break;
            } else if completion.wr_id == wr_write {
                object_written = false;
            }
        }
        let won = landed && observed == expected;
        self.span_since(Phase::Publish, publish_start, won as u32);
        self.stats.record_spec_publish(!won);
        if won {
            self.finish_replace(slot_addr, hash, old, new, None);
        } else {
            self.hints.forget(hash);
        }
        (won, object_written)
    }

    /// The one-round fill's door ([`Shape::Fill`](super::round::Shape::Fill)):
    /// rings `round` — the WRITE of the `encoded` object and the insert
    /// slot's metadata WRITE, unsignalled, the insert CAS from the word the
    /// miss memo read there to `new` behind them, the victim CAS of the
    /// eviction `carried`, the sample READ and history-id FAA of the
    /// eviction `ahead` — and returns without polling any of it: its insert
    /// and the eviction it carried are queued (see the module docs).  The
    /// key's board epoch moves now, and the carried victim key's: both
    /// before the `Set` returns.  A carried eviction that has not picked
    /// sends its re-sample READ instead, and stays with the fill.  The own
    /// eviction parks with its sample in flight, its candidates scored with
    /// the FC counts this client buffers now, as a deferred re-sample's are;
    /// the client's round after a poll booked that sample picks from it
    /// ([`Self::host_picks`]).  Each eviction's READ lands in its
    /// own sample bytes, whatever the round's hosted work reads meanwhile.
    /// The journal stays armed until the fill is booked.
    pub(super) fn post_fill(
        &mut self,
        hash: u64,
        round: &Round,
        encoded: &[u8],
        new: AtomicField,
        mut ahead: Option<Eviction>,
        mut carried: Option<Eviction>,
    ) {
        let Op::Cas { addr, expected, .. } = round.verbs[2].op else {
            unreachable!("a fill's CAS rides behind its two WRITEs")
        };
        // An insert displaces no allocation (see `install_new`); the carried
        // victim's CAS, which may, is journalled beside it.
        let victim = carried.as_ref().filter(|ev| ev.is_picked());
        self.journal_set_fill(victim.map(Eviction::victim_object));
        if let Some(ev) = ahead.as_mut() {
            self.defer_sample(ev);
        }
        if let Some(ev) = carried.as_mut().filter(|ev| ev.resample_drawn()) {
            self.defer_sample(ev);
            self.stats.record_resample_deferred();
        }
        let publish_start = self.dm.now_ns();
        let (wr_write, observed) =
            self.post_round(round, encoded, &mut [ahead.as_mut(), carried.as_mut()]);
        // Whether it installed the pointer is booked later: detail 0.
        self.span_since(Phase::Publish, publish_start, 0);
        self.bump_board(hash);
        if let Some(ev) = carried.as_mut().filter(|ev| ev.is_picked()) {
            self.bump_victim_ahead(ev);
        }
        if let Some(ev) = ahead {
            // A starved `Set` took up the eviction parked before it.
            self.park(ev);
        }
        let insert = PendingInsert {
            slot: addr,
            new: new.encode(),
            won: observed == expected,
            object: (new.object_addr(), encoded.len()),
            wrs: wr_write..wr_write + 3,
            cas_polled: false,
            token: self.mig_token,
            hint_epoch: self.hint_epoch(hash, self.board.epoch(hash)),
        };
        self.deferred.fill(hash, Some(insert), carried);
    }

    /// Books the pending fill, if any — called once its completions are
    /// polled ([`super::deferred::Deferred::awaited`]), by the op whose
    /// polls met the last of them ([`DittoClient::end_op`]), or before an op
    /// that must find it settled ([`DittoClient::settle_before`]).  A won
    /// insert notes its hint (current as of the ring), drops what this
    /// client's FC cache still held for the slot — the previous key's — and
    /// is rolled forward across a stripe move ([`Self::settle_rekey`]).  A
    /// lost one is abandoned: a cache may always miss.  Its object is freed,
    /// and its metadata WRITE, which may have landed ahead of a CAS that lost
    /// or faulted, is undone ([`Self::repair_hash`]).  The CAS decides by the
    /// word it found, which only a CAS that executed wrote.  Then the fill
    /// is finished ([`Self::finish_fill`]) — but for a carried eviction still
    /// to pick, which stays queued for a later round to pick, unless the
    /// insert was abandoned.  (The journal names the abandoned object, freed
    /// now and kept in this client's hoard: armed past its free, it would
    /// have recovery free it again.)
    pub(super) fn book_fill(&mut self) {
        let Some(hash) = self.deferred.fill_key() else {
            return;
        };
        let abandoned = match self.deferred.insert.take() {
            Some(insert) if insert.won => {
                self.hint_note(hash, insert.slot, insert.new, insert.hint_epoch);
                self.discard_accesses(insert.slot);
                self.settle_rekey(insert.slot, insert.new, hash, insert.token);
                false
            }
            Some(insert) => {
                self.repair_hash(hash, insert.slot);
                let (addr, len) = insert.object;
                self.alloc.free(&self.dm, addr, len);
                self.stats.record_fill_abandoned();
                true
            }
            None => false,
        };
        if abandoned || !matches!(&self.deferred.carried, Some(ev) if ev.is_sampling()) {
            self.finish_fill();
        }
    }

    /// Finishes the pending fill: retires and frees its carried victim —
    /// re-picked, should its CAS have lost, and picked in place if no round
    /// has ([`Self::finish_carried`]) — then disarms the journal, which
    /// named both allocations.
    pub(super) fn finish_fill(&mut self) {
        if let Some(mut ev) = self.deferred.carried.take() {
            self.finish_carried(&mut ev);
        }
        self.journal_clear();
    }

    /// The history word of the victim at `slot_addr`, if the pending fill
    /// carried that victim's CAS: the word's WRITE into the slot waits for
    /// the fill's booking, and a regret check meanwhile reads it from the
    /// pick.
    pub(super) fn carried_history_word(&self, slot_addr: RemoteAddr) -> Option<u64> {
        let ev = self.deferred.carried.as_ref()?;
        ev.picked_history_word(slot_addr)
    }

    /// Undoes what a lost insert of `fill`'s key may have left at
    /// `slot_addr`: its metadata WRITE over the `hash` of another key's live
    /// object there, which no lookup finds meanwhile.  READs the slot's word
    /// as it stands now and the key of the object it names; if that is
    /// another key's, CASes the slot's `hash` word from `fill`'s back to it —
    /// a CAS that finds another `hash` lost to a writer that put its own,
    /// and leaves nothing to undo.  Then that key's board epoch moves, which
    /// refuses every miss memo of it taken meanwhile, and its buckets are
    /// read: a copy another client filled meanwhile, found there, is the
    /// key's current one, and the repaired slot is invalidated — bump
    /// before free — so the key lives once.  Timestamps and frequency stay
    /// the fill's: advisory.
    fn repair_hash(&mut self, fill: u64, slot_addr: RemoteAddr) {
        let Ok(found) = self.retry(|dm| dm.try_read_u64(slot_addr)) else {
            return;
        };
        let word = AtomicField::decode(found);
        if !word.is_object() {
            return;
        }
        let (addr, len) = (word.object_addr(), word.object_bytes() as usize);
        if self.obj_buf.len() < len {
            self.obj_buf.resize(len, 0);
        }
        let buf = &mut self.obj_buf[..len];
        if self
            .dm
            .with_retry(MAX_RETRIES, |dm| dm.try_read_into(addr, buf))
            .is_err()
        {
            return;
        }
        let Some(key) = object::view(&self.obj_buf[..len]).map(|view| fnv1a64(view.key)) else {
            return;
        };
        if key == fill || fingerprint(key) != word.fp {
            return;
        }
        let hash_addr = SampleFriendlyHashTable::hash_addr(slot_addr);
        let put_back = self.retry(|dm| dm.try_cas(hash_addr, fill, key));
        if put_back != Ok(fill) {
            return;
        }
        self.bump_board(key);
        let Ok(lookup) = self.search(key, word.fp, Plan::default(), &[], &mut [None, None], None)
        else {
            return;
        };
        let twin = lookup.slots.iter().any(|&(other, slot)| {
            other != slot_addr
                && slot.atomic.is_object()
                && slot.atomic.fp == word.fp
                && slot.hash == key
        });
        if twin && self.slot_cas(slot_addr, found, 0) {
            self.hints.forget(key);
            self.bump_board(key);
            self.discard_accesses(slot_addr);
            self.alloc.free(&self.dm, addr, len);
        }
    }

    pub(super) fn install_new(
        &mut self,
        slot_addr: RemoteAddr,
        observed: &Slot,
        new_atomic: AtomicField,
        hash: u64,
    ) -> bool {
        let expected = observed.atomic.encode();
        // No allocation is displaced by an insert into an empty (or
        // history) slot; zero the journal's old half so a stale triple
        // from an earlier failed replace attempt cannot be replayed.
        self.journal_set_old(None);
        if !self.rekey_cas(slot_addr, expected, new_atomic.encode(), hash) {
            return false;
        }
        self.hint_cas_won(hash, slot_addr, new_atomic.encode());
        true
    }

    /// Writes the metadata of the slot `hash`'s key was just CASed into
    /// ([`fresh_metadata`]).  Best effort, like every metadata write.
    fn write_fresh_metadata(&mut self, slot_addr: RemoteAddr, hash: u64) {
        let bytes = fresh_metadata(hash, self.dm.now_ns());
        let metadata = &bytes[OFF_HASH as usize..];
        let addr = SampleFriendlyHashTable::hash_addr(slot_addr);
        let _ = self.retry(|dm| dm.try_write_async(addr, metadata));
    }

    /// Picks the slot an insert should claim, preferring empty slots, then
    /// expired history entries, then the oldest valid history entry.
    pub(super) fn choose_insert_slot(
        &mut self,
        slots: &[(RemoteAddr, Slot)],
    ) -> Option<(RemoteAddr, Slot)> {
        if let Some(found) = slots.iter().find(|(_, s)| s.atomic.is_empty()) {
            return Some(*found);
        }
        if !slots.iter().any(|(_, s)| s.atomic.is_history()) {
            return None;
        }
        // Refresh the estimate of every history shard present in the bucket
        // before comparing validity/positions against them.
        for (_, s) in slots {
            if s.atomic.is_history() {
                self.refresh_counter_estimate(self.history.shard_of_id(s.atomic.history_id()));
            }
        }
        let estimate = |id: u64| self.counter_estimates[self.history.shard_of_id(id) as usize];
        if let Some(expired) = slots.iter().find(|(_, s)| {
            s.atomic.is_history()
                && !self
                    .history
                    .is_valid(estimate(s.atomic.history_id()), s.atomic.history_id())
        }) {
            return Some(*expired);
        }
        slots
            .iter()
            .filter(|(_, s)| s.atomic.is_history())
            .max_by_key(|(_, s)| {
                self.history
                    .position(estimate(s.atomic.history_id()), s.atomic.history_id())
            })
            .copied()
    }

    pub(super) fn bucket_evict_and_insert(
        &mut self,
        slots: &[(RemoteAddr, Slot)],
        new_atomic: AtomicField,
        hash: u64,
    ) -> bool {
        // Scored, like a sample's, with this client's buffered FC
        // increments folded in.
        let mut candidates = Candidates::new();
        for &(slot_addr, mut slot) in slots.iter().filter(|(_, s)| s.atomic.is_object()) {
            slot.freq += self.buffered_accesses(slot_addr);
            candidates.push((slot_addr, slot));
        }
        if candidates.is_empty() {
            return false;
        }
        // The bucket slots were decoded (and charged) by the lookup; only
        // the candidate scoring is added here.
        self.charge_score(candidates.len());
        let pick = self.select_victim(&candidates);
        let (victim_addr, victim) = candidates[pick.idx];
        let expected = victim.atomic.encode();
        // As in `replace_existing`: record the victim's allocation before
        // it becomes unreachable, so a crash between the CAS and the free
        // stays recoverable.
        self.journal_set_old(Some((
            victim.atomic.object_addr(),
            victim.atomic.object_bytes() as usize,
        )));
        if !self.rekey_cas(victim_addr, expected, new_atomic.encode(), hash) {
            return false;
        }
        // The *victim key*'s slot word is gone: invalidate its local-tier
        // copies right away — before even the crash hook, since the CAS
        // already landed.  (The inserted key's own bumps came with the CAS
        // and come again at the end of `set_inner`.)
        self.retire_victim(Retire::Bump, &victim, &pick);
        self.hint_cas_won(hash, victim_addr, new_atomic.encode());
        if self.crash_fired(CrashPoint::AfterPublish) {
            return true;
        }
        self.retire_victim(Retire::Free, &victim, &pick);
        self.stats.record_bucket_eviction();
        true
    }
}
