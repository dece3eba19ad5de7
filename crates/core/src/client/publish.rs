//! The publish half of `Set`: the slot CAS — rolled forward across a stripe
//! move only when it changes which key the slot holds — and the three
//! shapes a publish takes — replacing the key's live slot, installing into an
//! empty or history slot, evicting a victim of a full bucket — plus the two
//! front doors past the lookup, one round trip each: a hinted replace and a
//! fill right after its key's miss ([`DittoClient::publish_front`]).

use super::round::{Evictions, Op, Retire, Round, Shape};
use super::{Candidates, DittoClient, CAS_RETRY_BACKOFF_NS, MAX_RETRIES};
use crate::hashtable::SampleFriendlyHashTable;
use crate::recovery::CrashPoint;
use crate::slot::{AtomicField, Slot, OFF_HASH};
use ditto_algorithms::AccessKind;
use ditto_dm::{Phase, RemoteAddr};
use std::sync::Arc;

/// Rounds a key-changing publish waits for the flip of a stripe whose
/// reconcile may have carried its word without its metadata
/// ([`DittoClient::settle_rekey`]), each a CAS back-off plus a yield to the
/// reconcile's thread.
const FLIP_WAIT_ROUNDS: usize = 256;

impl DittoClient {
    /// CASes a slot's atomic word from `expected` to `new` and returns
    /// whether it took effect.  Against a non-empty word read off the live
    /// copy — every caller's but [`Self::rekey_cas`]'s — that needs no
    /// judgement afterwards (redirect rule 3 of `ditto_dm::migration`): the
    /// CAS landed on the live copy, or before the poison swap of a reconcile,
    /// which carried it.
    pub(super) fn slot_cas(&mut self, slot_addr: RemoteAddr, expected: u64, new: u64) -> bool {
        match self
            .dm
            .with_retry(MAX_RETRIES, |dm| dm.try_cas(slot_addr, expected, new))
        {
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
        self.settle_rekey(slot_addr, new, hash);
    }

    /// Rolls forward a key-changing publish of the word `new` whose
    /// metadata just landed at `slot_addr` (redirect rule 3 of
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
    pub(super) fn settle_rekey(&mut self, slot_addr: RemoteAddr, new: u64, hash: u64) {
        let dir = Arc::clone(self.table.directory());
        let (mut addr, mut token) = (slot_addr, self.mig_token);
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
            if self
                .dm
                .with_retry(MAX_RETRIES, |dm| dm.try_read_u64(home))
                .ok()
                != Some(new)
            {
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
        self.dm
            .pool()
            .stats()
            .record_cas_retry(CAS_RETRY_BACKOFF_NS);
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
        self.record_access(slot_addr, None, false);
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

    /// The front doors: a `Set`'s first `round`, planned one round trip with
    /// no lookup ([`Shape::Hinted`], [`Shape::Fill`]).  It carries the WRITE
    /// of the `encoded` object, unsignalled, and behind it the CAS of a slot
    /// to `new` from the word the client holds for it — the hinted word, or
    /// the word the miss memo read in the insert slot — and a fill's
    /// eviction verbs.  Returns whether the CAS returned that word, and
    /// whether the object's bytes landed.
    ///
    /// A hinted CAS that returned its word *is* the publish, finished like
    /// any replace ([`Self::slot_cas`] says why it needs no judgement,
    /// [`Self::finish_replace`]); a fill's is an insert like any other
    /// ([`Self::install_new`]).  Anything else cost this round trip, and
    /// the `Set` goes on through the lookup.  A hinted replace waits for its
    /// CAS alone; a fill for every verb of its round, so that the own
    /// eviction picks its victim (and parks it) and the carried one is
    /// finished — its victim freed before any crash point of this `Set` can
    /// find it taken out of the table.
    pub(super) fn publish_front(
        &mut self,
        hash: u64,
        round: &Round,
        encoded: &[u8],
        new: AtomicField,
        evs: &mut Evictions,
    ) -> (bool, bool) {
        let Op::Cas {
            addr: slot_addr,
            expected,
            ..
        } = round.verbs[1].op
        else {
            unreachable!("a front door's CAS rides behind its WRITE")
        };
        let (hinted, old) = (round.shape == Shape::Hinted, AtomicField::decode(expected));
        if hinted {
            let translate_ns = self.dm.now_ns();
            self.dm
                .record_span(Phase::Translate, translate_ns, translate_ns, 0);
        }
        // The hinted word names the allocation the CAS displaces; as in
        // `replace_existing` it is journalled before the CAS can land.  An
        // insert displaces none (see `install_new`).
        self.journal_set_old(hinted.then(|| (old.object_addr(), old.object_bytes() as usize)));
        let publish_start = self.dm.now_ns();
        let (wr_write, observed) = self.post_round(round, encoded, evs);
        // An errored WRITE surfaces although unsignalled, and has flushed
        // the CAS behind it.
        let (mut landed, mut object_written) = (false, true);
        while let Some(completion) = self.next_completion(evs) {
            if completion.wr_id == wr_write + 1 {
                landed = completion.status.is_ok();
                if hinted {
                    break;
                }
            } else if completion.wr_id == wr_write {
                object_written = false;
            }
        }
        let won = landed && observed == expected;
        self.dm
            .record_span(Phase::Publish, publish_start, self.dm.now_ns(), won as u32);
        if hinted {
            self.stats.record_spec_publish(!won);
            if won {
                self.finish_replace(slot_addr, hash, old, new, None);
            } else {
                self.hints.forget(hash);
            }
            return (won, object_written);
        }
        if won {
            self.rekey_landed(slot_addr, new.encode(), hash);
            self.hint_cas_won(hash, slot_addr, new.encode());
        } else if landed {
            self.record_failed_slot_cas();
        }
        let [own, carried] = evs;
        if let Some(ev) = own {
            self.evict_advance(ev, true);
        }
        if let Some(ev) = carried {
            self.evict_advance(ev, false);
        }
        (won, object_written)
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

    /// Writes the metadata of the slot `hash`'s key was just CASed into —
    /// key hash, insert and access timestamps, a frequency of one.  Best
    /// effort, like every metadata write.
    fn write_fresh_metadata(&mut self, slot_addr: RemoteAddr, hash: u64) {
        let now = self.dm.now_ns();
        let bytes = Slot {
            hash,
            insert_ts: now,
            last_ts: now,
            freq: 1,
            ..Slot::empty()
        }
        .to_bytes();
        let metadata = &bytes[OFF_HASH as usize..];
        let addr = SampleFriendlyHashTable::hash_addr(slot_addr);
        let _ = self
            .dm
            .with_retry(MAX_RETRIES, |dm| dm.try_write_async(addr, metadata));
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
        let mut candidates = Candidates::new();
        candidates.extend(slots.iter().filter(|(_, s)| s.atomic.is_object()).copied());
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
