//! The publish half of `Set`: the migration-aware slot CAS and the three
//! shapes a publish takes — replacing the key's live slot, installing into an
//! empty or history slot, evicting a victim of a full bucket — plus the front
//! door a hinted replace takes past the lookup ([`DittoClient::publish_hinted`]).

use super::{with_retry, Candidates, DittoClient, CAS_RETRY_BACKOFF_NS, MAX_RETRIES};
use crate::hashtable::SampleFriendlyHashTable;
use crate::recovery::CrashPoint;
use crate::slot::{AtomicField, Slot};
use ditto_algorithms::AccessKind;
use ditto_dm::migration::WriteDisposition;
use ditto_dm::{Phase, RemoteAddr, RECONCILE_POISON};
use std::sync::Arc;

/// How [`DittoClient::publish_hinted`] went.
pub(super) enum HintedPublish {
    /// Its conditions do not hold: no verb was posted.
    Declined,
    /// The CAS returned the hinted word: the new object is published and
    /// the displaced one freed.
    Won,
    /// Anything else — a changed word, a faulted verb.  It cost one round
    /// trip; the object's bytes landed unless the WRITE itself faulted.
    Mispredicted { object_written: bool },
}

impl DittoClient {
    /// CASes a slot's atomic field and confirms the write against the
    /// stripe directory.  While the slot's stripe is mid-move the new value
    /// is mirrored into the destination copy under the stripe lock; a CAS
    /// that hit a copy which had already been cut over reports failure so
    /// the caller redoes the operation against the stripe's live home.
    pub(super) fn slot_cas(&mut self, slot_addr: RemoteAddr, expected: u64, new: u64) -> bool {
        let Ok(observed) = with_retry(&self.dm, |dm| dm.try_cas(slot_addr, expected, new)) else {
            // The CAS kept faulting (NAK'd, never applied) or its node
            // fail-stopped: report a plain failure so the caller re-reads
            // and retries — or gives up — through its usual bounded loop.
            self.record_failed_slot_cas();
            return false;
        };
        if observed != expected {
            // Lost a race with another client's CAS on the same slot: back
            // off briefly before the caller re-reads and retries, and count
            // the failure in the pool's contention accounting.
            self.record_failed_slot_cas();
            return false;
        }
        self.confirm_slot_cas(slot_addr, expected, new)
    }

    /// Judges a slot CAS that took effect — `slot_addr` held `expected` and
    /// now holds `new` — against the stripe directory: the second half of
    /// [`Self::slot_cas`], and all of it a CAS posted on the WQE ring needs.
    pub(super) fn confirm_slot_cas(
        &mut self,
        slot_addr: RemoteAddr,
        expected: u64,
        new: u64,
    ) -> bool {
        match self
            .table
            .directory()
            .confirm_write(slot_addr, self.mig_token)
        {
            WriteDisposition::Clean => true,
            WriteDisposition::Stale => self.resolve_stale_cas(slot_addr, expected, new),
            WriteDisposition::Mirror { stripe, .. } => {
                // Serialise against the engine's copy passes, then re-judge:
                // the stripe may have committed while we waited for the lock.
                let lock = self.engine.stripe_lock(stripe);
                let acq = lock.acquire(&self.dm);
                if !acq.is_acquired() {
                    // A wedged holder outlasted the whole retry budget
                    // (crashed client; recovery will reclaim the lease).
                    // Mirror best-effort without the lock — the commit's
                    // reconcile pass squares away any straggler, exactly as
                    // for async metadata mirrors.
                    if let WriteDisposition::Mirror { addr, .. } = self
                        .table
                        .directory()
                        .confirm_write(slot_addr, self.mig_token)
                    {
                        let _ = self.dm.try_write(addr, &new.to_le_bytes());
                    }
                    return true;
                }
                let verdict = match self
                    .table
                    .directory()
                    .confirm_write(slot_addr, self.mig_token)
                {
                    WriteDisposition::Mirror { addr, .. } => {
                        // Best-effort under faults: the commit's
                        // reconcile squares away a lost mirror write.
                        let _ = self.dm.try_write(addr, &new.to_le_bytes());
                        Some(true)
                    }
                    WriteDisposition::Clean => Some(true),
                    // The stripe committed while we waited: the holder
                    // was the commit's reconcile pass, which either
                    // carried the CAS to the new home or swallowed it.
                    // Resolve below (the resolution re-takes the lock).
                    WriteDisposition::Stale => None,
                };
                let _ = lock.release(&self.dm, &acq);
                verdict.unwrap_or_else(|| self.resolve_stale_cas(slot_addr, expected, new))
            }
        }
    }

    /// Resolves a slot CAS whose word CAS *succeeded* but whose address the
    /// directory judged stale — a cutover raced the operation between the
    /// verb and the judgement.  The commit's reconcile pass makes the
    /// outcome deterministic: it swaps every source word to
    /// [`RECONCILE_POISON`] *as* it carries the word's value to the
    /// destination, so a CAS that succeeded can only have landed before the
    /// swap — and was therefore carried.  (A CAS racing the swap from the
    /// other side observes the poison and fails at the verb layer, never
    /// reaching this resolution.)
    fn resolve_stale_cas(&mut self, slot_addr: RemoteAddr, expected: u64, new: u64) -> bool {
        if expected != 0 {
            // Deterministically carried.  `expected` was read off the live
            // copy of the stripe, so the CAS hit the live copy before its
            // reconcile; the reconcile then carried `new` to the stripe's
            // new home.  The write is live and the displaced value is the
            // caller's to clean up, exactly as on the Clean path.
            return true;
        }
        // expected == 0 — an insert into a word read as empty.  Two cases:
        // either the word belonged to the live copy (the insert was carried,
        // and the caller's retry will find the object already installed), or
        // the "empty" read predates a cutover and the raw CAS scribbled on a
        // *recycled* range another stripe now owns (parking reuse).  The
        // cases are indistinguishable from here, but one cleanup covers
        // both: CAS the scribble back out, chasing the word across any
        // later reconciles of the range's owner (the offset within a
        // stripe is invariant across moves).
        let dir = Arc::clone(self.table.directory());
        let mut addr = slot_addr;
        let mut rolled_back = false;
        for _ in 0..MAX_RETRIES {
            let Ok(observed) = with_retry(&self.dm, |dm| dm.try_cas(addr, new, 0)) else {
                // The rollback CAS cannot get through (faults or a dead
                // node): treat the allocation as lost, like the displaced
                // case below — over-abandoning only costs a re-allocation.
                break;
            };
            if observed == new {
                // Undid the insert: whether it was a scribble or a carried
                // install, the object is back in the caller's hands (a
                // carried install just gets re-inserted by the retry).
                rolled_back = true;
                break;
            }
            if observed == RECONCILE_POISON {
                // The owning stripe reconciled again mid-chase; follow the
                // word to the stripe's new home.
                match dir.resolve_vacated(addr) {
                    Some((_, next)) if next != addr => {
                        addr = next;
                        continue;
                    }
                    _ => break,
                }
            }
            // A third value: an evictor or a later insert already displaced
            // the word — and freed the object it pointed at.  The caller
            // must not free (or reuse) its allocation.
            break;
        }
        if !rolled_back {
            self.alloc_abandoned = true;
        }
        self.record_failed_slot_cas();
        false
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
        self.record_access(slot_addr, AccessKind::Update, None);
        if let Some(slot) = decoded {
            // The extension words live with the object: the update's go to
            // the new one, not the one freed below.
            self.record_extension(slot, new.object_addr(), None, AccessKind::Update);
        }
        self.free_object(old.object_addr(), old.object_bytes() as usize);
    }

    /// The one-round-trip publish (see the crate docs, *The one-round-trip
    /// `Set`*): when `hash` holds a hint a `Set` may act on, posts the WRITE
    /// of the `encoded` object at `obj_addr` unsignalled and, behind it on
    /// the same doorbell, the CAS of the hinted slot from the hinted word to
    /// `new` — no lookup — and polls the CAS's completion.  The CAS
    /// returning the hinted word *is* the publish, judged and finished like
    /// any replace ([`Self::confirm_slot_cas`], [`Self::finish_replace`]).
    ///
    /// Declined, before any verb, unless the new object lives on the slot's
    /// node — one queue pair, in order, and an errored WRITE flushes the CAS
    /// behind it, so the word can never name bytes that did not land — and
    /// no expert keeps extension words (their Update rule needs the decoded
    /// slot).  The caller declines for a third reason: an eviction riding
    /// this `Set`, whose sample shares the lookup's doorbell.
    pub(super) fn publish_hinted(
        &mut self,
        hash: u64,
        obj_addr: RemoteAddr,
        new: AtomicField,
        encoded: &[u8],
    ) -> HintedPublish {
        if self.use_extension {
            return HintedPublish::Declined;
        }
        let Some(hint) = self.set_hint(hash) else {
            return HintedPublish::Declined;
        };
        self.mig_token = self.table.directory().version();
        let slot_addr = self.hinted_slot_addr(hash, hint);
        if obj_addr.mn_id != slot_addr.mn_id {
            return HintedPublish::Declined;
        }
        let translate_ns = self.dm.now_ns();
        self.dm
            .record_span(Phase::Translate, translate_ns, translate_ns, 0);
        // The hinted word names the allocation the CAS displaces; as in
        // `replace_existing` it is journalled before the CAS can land.
        let old = AtomicField::decode(hint.word);
        self.journal_set_old(Some((old.object_addr(), old.object_bytes() as usize)));
        let publish_start = self.dm.now_ns();
        let mut observed = 0;
        let (wr_write, wr_cas) = {
            let mut wq = self.dm.work_queue();
            let wr_write = wq.post_write(obj_addr, encoded, false);
            let wr_cas = wq.post_cas(slot_addr, hint.word, new.encode(), &mut observed, true);
            wq.ring();
            (wr_write, wr_cas)
        };
        // Fault-free the CAS's completion is the only one.  An errored WRITE
        // surfaces ahead of it although unsignalled, and has flushed it.
        let mut object_written = true;
        let cas_landed = loop {
            let completion = self.dm.poll_cq().expect("publish CAS completion");
            if completion.wr_id == wr_cas {
                break completion.status.is_ok();
            }
            if completion.wr_id == wr_write {
                object_written = false;
            }
        };
        let won = cas_landed
            && observed == hint.word
            && self.confirm_slot_cas(slot_addr, hint.word, new.encode());
        self.dm
            .record_span(Phase::Publish, publish_start, self.dm.now_ns(), won as u32);
        self.stats.record_spec_publish(!won);
        if !won {
            // The slot moved on (or a verb faulted): one round trip spent,
            // and the `Set` goes on through the lookup it tried to skip.
            self.hints.forget(hash);
            return HintedPublish::Mispredicted { object_written };
        }
        self.finish_replace(slot_addr, hash, old, new, None);
        HintedPublish::Won
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
        if !self.slot_cas(slot_addr, expected, new_atomic.encode()) {
            return false;
        }
        self.hint_cas_won(hash, slot_addr, new_atomic.encode());
        self.write_fresh_metadata(slot_addr, hash);
        true
    }

    fn write_fresh_metadata(&mut self, slot_addr: RemoteAddr, hash: u64) {
        let now = self.dm.now_ns();
        let mut buf = [0u8; 32];
        buf[0..8].copy_from_slice(&hash.to_le_bytes());
        buf[8..16].copy_from_slice(&now.to_le_bytes());
        buf[16..24].copy_from_slice(&now.to_le_bytes());
        buf[24..32].copy_from_slice(&1u64.to_le_bytes());
        self.write_slot_meta(SampleFriendlyHashTable::hash_addr(slot_addr), &buf);
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
        let (victim_idx, bitmap, chosen) = self.select_victim(&candidates);
        let (victim_addr, victim) = candidates[victim_idx];
        let expected = victim.atomic.encode();
        // As in `replace_existing`: record the victim's allocation before
        // it becomes unreachable, so a crash between the CAS and the free
        // stays recoverable.
        self.journal_set_old(Some((
            victim.atomic.object_addr(),
            victim.atomic.object_bytes() as usize,
        )));
        if !self.slot_cas(victim_addr, expected, new_atomic.encode()) {
            return false;
        }
        // The *victim key*'s slot word is gone: invalidate its local-tier
        // copies right away — before even the crash hook, since the CAS
        // already landed.  (The inserted key's own bump happens once at the
        // end of `set_inner`.)
        self.bump_board(victim.hash);
        self.hints.forget(victim.hash);
        self.hint_cas_won(hash, victim_addr, new_atomic.encode());
        if self.crash_fired(CrashPoint::AfterPublish) {
            return true;
        }
        self.notify_eviction(&candidates, victim_idx, bitmap);
        self.free_object(
            victim.atomic.object_addr(),
            victim.atomic.object_bytes() as usize,
        );
        self.write_fresh_metadata(victim_addr, hash);
        self.stats.record_bucket_eviction();
        self.stats.record_eviction(chosen);
        true
    }
}
