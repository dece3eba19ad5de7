//! Sampling eviction: the one routine behind [`DittoClient::evict_once`], the
//! inline evictions of a starved allocation, the eviction a `Set` under
//! memory pressure runs *ahead*, beside its own lookup and publish, and the
//! one a fill *parks* for the next starved `Set` to carry, picked or, unable
//! to pick yet, unpicked.  A parked or carried eviction is queued work: what
//! its completions do, and which ops pick for it, the crate docs list (*What
//! an op leaves behind*).  A candidate is scored on its slot's words plus
//! the FC increments this client buffered for it when its sample landed —
//! or, of a deferred sample, when its READ went out: folded in where the
//! sample is decoded, once.

use super::deferred::OpKind;
use super::lookup::bucket_holds;
use super::round::{
    alone, Carry, Context, Op, Owner, Retire, Riding, RidingSample, Round, Shape, Verb, DISPLACE,
};
use super::{Candidates, DittoClient, Pick};
use crate::config::DittoConfig;
use crate::hashtable::SampleFriendlyHashTable;
use crate::history::EvictionHistory;
use crate::inline::InlineVec;
use crate::slot::{AtomicField, Slot, SLOT_SIZE};
use ditto_dm::wqe::MAX_WQES;
use ditto_dm::{Phase, RemoteAddr};
use rand::Rng;
use std::ops::Range;

/// The victim `ev` has picked and not freed yet, if any: never a candidate
/// of the client's other eviction ([`Eviction::other_victim`]).
pub(super) fn picked_victim(ev: &Option<Eviction>) -> Option<RemoteAddr> {
    ev.as_ref().and_then(Eviction::picked_victim)
}

/// What [`Eviction::fetched`] holds until the history-id FAA lands — and
/// for good when it faulted, since an errored verb leaves its result buffer
/// alone.  No counter reaches it: they count up from zero by ones.
const NO_ID: u64 = u64::MAX;

/// The bytes of an eviction's current sample, inline: its READs land here,
/// one segment behind another, and only its own decode reads them.
pub(super) struct SampleBytes(pub(super) [u8; DittoConfig::SAMPLE_SPAN_SLOTS * SLOT_SIZE]);

impl Default for SampleBytes {
    fn default() -> Self {
        SampleBytes([0; DittoConfig::SAMPLE_SPAN_SLOTS * SLOT_SIZE])
    }
}

/// Where an [`Eviction`] stands between its round trips.
#[derive(Clone, Copy, Default)]
pub(super) enum EvictWait {
    /// A sample READ is out (or waits to ride the `Set`'s first round, or,
    /// a fill's deferred re-sample, for its op to end or for the ring of the
    /// fill that carries it), beside the first one the history-id FAA.
    #[default]
    Sample,
    /// The victim is picked and its slot CAS not posted: it goes out at
    /// once, unless the eviction is parked for the next starved `Set`.
    Picked,
    /// The victim's slot CAS is out.
    Victim,
    /// Finished: whether an object was evicted and its memory recycled.
    Done(bool),
}

/// One sampling eviction, resumable at its round trips: the state
/// [`DittoClient::evict_advance`] — the one eviction routine — works on,
/// started by [`DittoClient::evict_begin`] alone.  Run without pausing it is
/// the inline eviction, every round trip waited for in turn.  An eviction
/// running *ahead* of a `Set` (see the crate docs) has its first sample READ
/// and history-id FAA ride the `Set`'s first round, and is paused after each
/// verb it posts beside the `Set`'s insert.  A
/// *parked* one stops once its victim is picked, and the next starved `Set`
/// carries its victim CAS ([`DittoClient::take_parked`]).  A fill parks its
/// eviction before that, its first sample in flight or landed, and the
/// client's round after the sample landed decodes it and picks under its
/// own flight ([`DittoClient::host_picks`]).  A parked one whose sample was
/// short instead stops with its re-sample drawn, sent on a ring of its own
/// ([`DittoClient::park`]), and the `Set` that takes the eviction up
/// decodes it and picks — or, still short, carries it unpicked, its next
/// re-sample on the `Set`'s ring, for a later op's round to pick.  The
/// round executor
/// ([`super::round`]) posts its verbs and books their completions on it;
/// its sample READs land in its own [`Self::sample`], whatever other
/// evictions read meanwhile.  Its candidates carry their `freq` words with
/// this client's buffered FC increments folded in as of their sample's
/// landing, so every pick — the first, a deferred one, a re-pick after a
/// lost victim CAS — scores the same counts.
#[derive(Default)]
pub(super) struct Eviction {
    /// Start of the `Evict` span: when the first sample was issued — or, of a
    /// parked eviction, when its victim CAS was posted (the op that picks
    /// records the sample half).
    pub(super) t0: u64,
    min_blocks: u8,
    /// The stripe directory's version when the eviction began: a parked
    /// eviction is dropped once it moved ([`DittoClient::take_parked`]).
    version: u64,
    /// The key of the `Set` this eviction runs ahead of, and that key's two
    /// buckets, whose slots are never candidates
    /// ([`Rule::Sample`](super::round::Rule::Sample)).
    key: Option<u64>,
    own_buckets: Option<[RemoteAddr; 2]>,
    /// The victim slot of the client's other eviction between its pick and
    /// its free — the one the same `Set` carries, or, between two fills, the
    /// parked or the carried one: never a candidate either, for that
    /// eviction takes it out.
    pub(super) other_victim: Option<RemoteAddr>,
    /// Whether, once picked, the victim waits for the next starved `Set`.
    pub(super) park: bool,
    /// The first op in which the current sample counts as landed
    /// ([`Self::landed`]): the one after the op whose poll booked its last
    /// completion — or after the next, booked by a `Set`'s.
    pub(super) landed_op: u64,
    /// Whose verbs this eviction's are in a `Set`'s rounds: its own, or —
    /// parked by an earlier `Set` — those of the eviction it carries.
    pub(super) owner: Owner,
    candidates: Candidates,
    pub(super) samples: usize,
    retries: usize,
    pub(super) wait: EvictWait,
    /// Whether the current sample is deferred — a fill's own, decoded by a
    /// later op, or a re-sample: [`Self::fc_seen`] holds what the FC cache
    /// buffered for its slots when it went out.
    pub(super) deferred: bool,
    /// The FC deltas this client buffered for each slot of a deferred
    /// sample's span, in canonical order, when its READ went out.
    fc_seen: InlineVec<u64, { DittoConfig::SAMPLE_SPAN_SLOTS }>,
    /// Physical READ segments of the current sample, in canonical order.
    segments: InlineVec<(RemoteAddr, usize), MAX_WQES>,
    /// The current sample's bytes, its segments one behind another.
    pub(super) sample: SampleBytes,
    /// Whether the current sample's READs were issued yet.
    pub(super) issued: bool,
    /// Work-request ids of the posted verb(s) waited for, how many of their
    /// completions are still out, and whether an awaited sample READ faulted.
    pub(super) wrs: Range<u64>,
    pub(super) in_flight: usize,
    pub(super) failed: bool,
    /// The history counter whose FAA the first sample's round still has to
    /// carry, and the shard it counts for: with the lightweight history,
    /// every eviction acquires its id before it knows its victim.
    pub(super) id_counter: Option<RemoteAddr>,
    id_shard: u64,
    /// Work-request id of that FAA once posted: its fault is not the
    /// sample's.
    pub(super) id_wr: Option<u64>,
    /// Old counter value the FAA fetched, [`NO_ID`] until (unless) it lands.
    pub(super) fetched: u64,
    /// The picked victim.
    pick: Pick,
    /// The word the victim CAS swaps in — a history entry, or 0 — and the
    /// old value it returned: anything but the victim's word until (unless)
    /// the CAS executed and found it.
    word: u64,
    pub(super) observed: u64,
    /// Whether the picked victim's key was bumped already, with the victim
    /// CAS still out ([`DittoClient::bump_victim_ahead`]): a won CAS then
    /// only frees it.
    bumped: bool,
}

impl Eviction {
    /// The sample waiting to ride the `Set`'s first round, as the planner
    /// takes it ([`super::round::Plan::own`]): its READ segments, the history counter its FAA goes to,
    /// and what it leaves out.
    pub(super) fn riding(&self) -> Option<RidingSample<'_>> {
        let riding = Riding {
            key: self.key,
            victim: self.other_victim,
            park: self.park,
        };
        (!self.issued && !self.deferred).then_some((&self.segments[..], self.id_counter, riding))
    }

    /// Whether a victim is picked and not freed yet: its CAS still to go
    /// out, or in flight.
    pub(super) fn is_picked(&self) -> bool {
        matches!(self.wait, EvictWait::Picked | EvictWait::Victim)
    }

    /// Whether it waits for a sample to pick from.
    pub(super) fn is_sampling(&self) -> bool {
        matches!(self.wait, EvictWait::Sample)
    }

    /// Whether it drew a re-sample, deferred, that has not gone out.
    pub(super) fn resample_drawn(&self) -> bool {
        self.is_sampling() && self.deferred && !self.issued
    }

    /// The picked victim's slot, if [`Self::is_picked`].
    fn picked_victim(&self) -> Option<RemoteAddr> {
        self.is_picked().then(|| self.victim_addr())
    }

    /// Whether, waiting to pick, it may decode its sample in op `op`: every
    /// READ of it completed, and booked before this op — or, booked by a
    /// `Set`'s polls, before the op after it ([`Self::landed_op`]).  A
    /// one-round fill polls nothing, and its completions are met by the op
    /// after it; a `Set` that looks its key up drains its rounds, and meets
    /// them itself.  Counting the second as the first would, a striped
    /// cache, whose fills take either shape, decodes at the op a single-node
    /// one does.
    pub(super) fn landed(&self, op: u64) -> bool {
        self.is_sampling() && self.issued && self.in_flight == 0 && op >= self.landed_op
    }

    /// What this eviction, carried by a `Set`, sends: its victim CAS once
    /// picked, or else the re-sample it drew and has not sent, if any,
    /// which leaves the `Set`'s buckets out.
    pub(super) fn carry(&self) -> Carry<'_> {
        match (self.is_picked(), self.resample_drawn()) {
            (true, _) => Carry::Victim(self.victim_cas()),
            (false, true) => Carry::Unpicked(&self.segments, self.key),
            (false, false) => Carry::Unpicked(&[], self.key),
        }
    }

    /// The CAS of the picked victim's slot.
    pub(super) fn victim_cas(&self) -> Verb {
        let (addr, victim) = self.candidates[self.pick.idx];
        let (expected, new) = (victim.atomic.encode(), self.word);
        let op = Op::Cas {
            addr,
            expected,
            new,
            retire: DISPLACE,
        };
        Verb {
            op,
            signalled: true,
            owner: self.owner,
        }
    }

    /// Whether `slot_addr` may not be a candidate: a slot of the `Set`'s own
    /// buckets, or the victim slot of the eviction it carries.
    fn excludes(&self, slot_addr: RemoteAddr) -> bool {
        self.other_victim == Some(slot_addr)
            || self
                .own_buckets
                .iter()
                .flatten()
                .any(|&bucket| bucket_holds(bucket, slot_addr))
    }

    /// The slot of the picked victim.
    fn victim_addr(&self) -> RemoteAddr {
        self.candidates[self.pick.idx].0
    }

    /// The picked victim's object: its address and size.
    pub(super) fn victim_object(&self) -> (RemoteAddr, usize) {
        let victim = self.candidates[self.pick.idx].1.atomic;
        (victim.object_addr(), victim.object_bytes() as usize)
    }

    /// The history word the pick made for the victim at `slot_addr`, if
    /// that is its victim and its CAS swaps in a history entry.
    pub(super) fn picked_history_word(&self, slot_addr: RemoteAddr) -> Option<u64> {
        (self.word != 0 && self.victim_addr() == slot_addr).then_some(self.pick.history_word)
    }

    /// Takes a parked eviction up again once its victim CAS goes out: from
    /// `now` on it runs like any other, its `Evict` span the victim half.
    pub(super) fn unpark(&mut self, now: u64) {
        (self.park, self.t0) = (false, now);
    }
}

impl DittoClient {
    /// Performs one sampling eviction.  Returns `true` when an object was
    /// evicted and its memory recycled.
    pub fn evict_once(&mut self) -> bool {
        self.settle_before(OpKind::Evict);
        self.evict_once_for(0)
    }

    /// One sampling eviction driven by a pending allocation of `min_blocks`
    /// blocks: sampled victims big enough to serve the allocation are
    /// preferred when any exist (recycled ranges only coalesce with free
    /// neighbours, so evicting small victims for a large request can churn
    /// indefinitely — the many-clients analogue of slab-class eviction).
    /// Falls back to the plain priority choice when the sample holds no
    /// big-enough victim, so memory still gets freed for other clients.
    pub(super) fn evict_once_for(&mut self, min_blocks: u8) -> bool {
        let mut ev = self.evict_begin(min_blocks, None);
        self.evict_advance(&mut ev, false)
            .expect("an eviction that never pauses runs to completion")
    }

    /// Starts a sampling eviction by issuing its first sample and, beside
    /// it, the FAA for its history id.  With `ahead = (hash, carried, park)`
    /// it is the eviction a starved `Set` of `hash` runs *ahead* (see
    /// [`Eviction`]): the two verbs wait to ride the `Set`'s first doorbell,
    /// and no slot of the key's two buckets — nor the victim slot of the
    /// eviction `carried`, which this `Set` takes out, if it has picked — is
    /// a candidate.  With `park` its victim, once picked, waits for the next
    /// starved `Set`.
    pub(super) fn evict_begin(
        &mut self,
        min_blocks: u8,
        ahead: Option<(u64, Option<&Eviction>, bool)>,
    ) -> Eviction {
        let mut ev = Eviction {
            t0: self.dm.now_ns(),
            min_blocks,
            version: self.table.directory().version(),
            owner: Owner::Own,
            retries: 3,
            fetched: NO_ID,
            ..Eviction::default()
        };
        if let Some((hash, carried, park)) = ahead {
            (ev.key, ev.park) = (Some(hash), park);
            ev.own_buckets = Some(self.key_buckets(hash));
            ev.other_victim = carried.and_then(Eviction::picked_victim);
        }
        self.issue_sample(&mut ev, false);
        ev
    }

    /// The addresses of `hash`'s two buckets.
    fn key_buckets(&self, hash: u64) -> [RemoteAddr; 2] {
        [false, true].map(|secondary| self.table.bucket_addr(self.hinted_bucket(hash, secondary)))
    }

    /// The eviction a previous fill parked, if this `Set` of `hash` is
    /// `starved` and so carries it.  Any `Set` drops it instead once a
    /// stripe cutover has moved the directory since it began — its
    /// candidates' addresses may name retired copies
    /// ([`Self::drop_eviction`]).  A parked eviction that has not picked yet
    /// — its fill's sample, or the re-sample it deferred, not decoded by the
    /// op that booked it — decodes its landed sample here, its CPU work
    /// charged before the `Set`'s first ring, and picks.  One that cannot
    /// pick yet — that sample short, or its READ still in flight — is
    /// carried unpicked, and the `Set` waits for nothing: a re-sample it drew
    /// leaves this `Set`'s buckets out and goes out on the one-round fill's
    /// ring in place of the victim CAS ([`Eviction::carry`]) — or, the
    /// `Set` of another shape, as it ends ([`Self::send_resample`]) — and a
    /// later op picks ([`Self::host_picks`]).  Under an
    /// extension expert, whose scoring READs object headers, it picks here
    /// in place.
    pub(super) fn take_parked(&mut self, starved: bool, hash: u64) -> Option<Eviction> {
        let version = self.table.directory().version();
        let taken = |ev: &mut Eviction| starved || ev.version != version;
        let mut ev = self.deferred.parked.take_if(taken)?;
        if ev.version != version {
            self.drop_eviction(&mut ev);
            return None;
        }
        ev.owner = Owner::Carried;
        if self.use_extension {
            self.pick_in_place(&mut ev);
        } else if ev.landed(self.dm.op_id()) {
            ev.t0 = self.dm.now_ns();
            self.take_sample(&mut ev);
        }
        if ev.is_sampling() && !ev.issued {
            (ev.key, ev.own_buckets) = (Some(hash), Some(self.key_buckets(hash)));
        }
        // Nothing to pick from after every re-sample: given up.
        (!matches!(ev.wait, EvictWait::Done(_))).then_some(ev)
    }

    /// Sends the sample `ev` drew and left unsent, if any — a parked
    /// eviction's re-sample, one a `Set` that carried it unpicked drew where
    /// a one-round fill's ring would have carried it, a looked-up fill's
    /// own that no lookup round carried — signalled, on a ring of its own,
    /// left in flight for a later op to poll and pick from; a re-sample is
    /// counted ([`crate::CacheStats::resamples_deferred`]).
    pub(super) fn send_resample(&mut self, ev: &mut Eviction) {
        if ev.resample_drawn() {
            self.post_deferred_sample(ev);
            if ev.samples > 1 {
                self.stats.record_resample_deferred();
            }
        }
    }

    /// Drops `ev`, its candidates' addresses stale after a stripe cutover:
    /// a sample READ it still has out is polled first, so that no stray
    /// completion meets the op's own polls, and its history id is burnt.
    fn drop_eviction(&mut self, ev: &mut Eviction) {
        self.await_eviction(ev);
        if self.policy.is_adaptive() {
            self.stats.record_history_id_burnt();
        }
        ev.wait = EvictWait::Done(false);
    }

    /// Runs `ev`, a fill's eviction, to its pick where it stands: a drawn
    /// re-sample goes out now, and each sample is waited for and decoded in
    /// turn — a re-sample so waited for is counted
    /// ([`crate::CacheStats::resamples_waited`], in [`Self::collect_sample`]).
    pub(super) fn pick_in_place(&mut self, ev: &mut Eviction) {
        while ev.is_sampling() {
            if !ev.issued {
                self.post_deferred_sample(ev);
            }
            ev.t0 = self.dm.now_ns();
            if self.take_sample(ev) {
                self.issue_sample(ev, false);
            }
        }
    }

    /// Advances `ev`: collect the sample (and the history id), re-sample
    /// while it holds too few candidates, pick a victim and CAS it out,
    /// fall back to the next-best candidate on a lost race.  Run
    /// `beside_insert` — the `Set` publishes by an insert next — it returns
    /// `None` right after posting a verb, for that publish to overlap and
    /// the caller to resume it later; otherwise it waits in place and runs
    /// to `Some(won)`.  A fill's own parked eviction returns `None` once its
    /// victim is picked, either way, and with its first re-sample drawn and
    /// left for its op's end ([`Self::defers_resample`]).
    pub(super) fn evict_advance(&mut self, ev: &mut Eviction, beside_insert: bool) -> Option<bool> {
        loop {
            match ev.wait {
                EvictWait::Done(won) => return Some(won),
                EvictWait::Sample if ev.deferred && !ev.issued => return None,
                EvictWait::Sample => {
                    if self.take_sample(ev) {
                        self.issue_sample(ev, beside_insert);
                        if beside_insert {
                            return None;
                        }
                    }
                }
                EvictWait::Picked if ev.park && ev.owner == Owner::Own => return None,
                EvictWait::Picked => {
                    self.send_victim(ev, beside_insert);
                    if beside_insert {
                        return None;
                    }
                }
                EvictWait::Victim => {
                    if self.commit_victim(ev) {
                        self.evict_finish(ev, true);
                    } else {
                        // Pressured clients herd onto the same globally-best
                        // victim and only one CAS wins.  The sample and the
                        // history id are paid for, so a loser re-selects
                        // among the rest (bounded): a retry on a *different*
                        // victim is progress.
                        ev.candidates.swap_remove(ev.pick.idx);
                        ev.retries -= 1;
                        if ev.retries == 0 || ev.candidates.is_empty() {
                            self.evict_finish(ev, false);
                        } else {
                            self.pick_victim(ev);
                        }
                    }
                }
            }
        }
    }

    /// Waits for `ev`'s current sample, decodes it and decides: picks a
    /// victim, gives up with nothing to pick from after every re-sample, or
    /// draws the re-sample a short sample calls for — deferred, its READ left
    /// to whoever posts it, where [`Self::defers_resample`] says so.  Returns
    /// whether the re-sample is to be read in place instead, which the
    /// caller issues.  A parked eviction's pick closes its sample half, the
    /// `Evict` span from [`Eviction::t0`].
    fn take_sample(&mut self, ev: &mut Eviction) -> bool {
        let (slots, scored) = self.collect_sample(ev);
        let found = ev.candidates.len();
        let short = found < 2 && (found == 0 || ev.samples < 4) && ev.samples < 8;
        // A fill's own parked eviction picks under a later round's flight
        // ([`Self::host_picks`]), on the clock its decode starts
        // at, and that decode and the scoring are charged right after.
        // Under an extension expert, whose scoring READs object headers,
        // and for any other pick, re-sample or give-up, the decode comes
        // first.
        let hosted =
            found > 0 && !short && ev.park && ev.owner == Owner::Own && !self.use_extension;
        if !hosted {
            self.charge_decode(slots);
            self.charge_score(scored);
        }
        if short && self.defers_resample(ev) {
            ev.deferred = true;
            self.issue_sample(ev, false);
        } else if short {
            return true;
        } else if found == 0 {
            self.evict_finish(ev, false);
        } else {
            let min_blocks = ev.min_blocks;
            let fits = |c: &(_, Slot)| c.1.atomic.size_class >= min_blocks;
            let fitting = ev.candidates.iter().copied().filter(fits).count();
            if fitting > 0 && fitting < found {
                let all = std::mem::take(&mut ev.candidates);
                ev.candidates.extend(all.iter().copied().filter(fits));
            }
            self.pick_victim(ev);
            if hosted {
                self.charge_decode(slots);
                self.charge_score(scored);
            }
            if ev.park {
                self.span_since(Phase::Evict, ev.t0, 0);
            }
        }
        false
    }

    /// Whether `ev`, a fill's eviction whose sample came up short, leaves
    /// its re-sample to the client's next ops.  A fill's own parked one
    /// does so for its first: the op that decoded the sample draws the span
    /// and sends the READ on a ring of its own — under its round's flight,
    /// or once it has ended — and polls nothing; the `Set` that takes the
    /// eviction up picks from it ([`Self::take_parked`]).  A carried one
    /// does so for every re-sample: the carrying fill's ring, or a later
    /// op's round, sends it ([`Self::host_picks`]).  Under an
    /// extension expert every re-sample is read in place.
    fn defers_resample(&self, ev: &Eviction) -> bool {
        !self.use_extension
            && match ev.owner {
                Owner::Own => ev.park && ev.samples == 1,
                Owner::Carried => true,
                Owner::Set => false,
            }
    }

    /// Makes `ev`'s next sample READ a deferred one, decoded by a later op:
    /// the eviction records the FC deltas this client buffers now for the
    /// span's slots, for [`Self::collect_sample`] to fold in — its pick,
    /// made later, scores the counts the READ saw.
    pub(super) fn defer_sample(&self, ev: &mut Eviction) {
        ev.deferred = true;
        ev.fc_seen.clear();
        for &(addr, slots) in ev.segments.iter() {
            for i in 0..slots {
                let seen = self.buffered_accesses(addr.add((i * SLOT_SIZE) as u64));
                ev.fc_seen.push(seen);
            }
        }
    }

    /// Parks `ev` for the next starved `Set` to carry.  A re-sample it drew,
    /// its sample too short to pick from ([`Self::defers_resample`]), goes
    /// out now, signalled, on a ring of its own: nothing polls it here, and
    /// the op does not wait for it ([`DittoClient::end_op`]); whichever poll
    /// of a later op meets its completion books it on the eviction
    /// ([`super::round`]'s `poll_routed`).
    pub(super) fn park(&mut self, mut ev: Eviction) {
        self.send_resample(&mut ev);
        debug_assert!(self.deferred.parked.is_none(), "one parked eviction");
        self.deferred.parked = Some(ev);
    }

    /// Posts `ev`'s drawn sample, deferred ([`Self::defer_sample`]),
    /// signalled, on a ring of its own.
    fn post_deferred_sample(&mut self, ev: &mut Eviction) {
        self.defer_sample(ev);
        let mut round = Round::new(Shape::Evict, Context::default());
        round.push_sample(&ev.segments, ev.id_counter, ev.owner);
        round.left_in_flight = true;
        self.post_round(&round, &[], &mut alone(ev));
    }

    /// Picks for `ev`, the eviction a fill carries unpicked: from the sample
    /// that has landed — a short one draws the next re-sample, for the
    /// caller to send — or, `in_place`, waiting for each re-sample in turn
    /// ([`Self::pick_in_place`]).  The parked eviction's picked victim is
    /// never a candidate.  The victim is journalled before its CAS goes out.
    /// A stripe cutover since the eviction began drops it instead
    /// ([`Self::drop_eviction`]).
    pub(super) fn pick_carried(&mut self, ev: &mut Eviction, in_place: bool) {
        if ev.version != self.table.directory().version() {
            self.drop_eviction(ev);
            return;
        }
        ev.other_victim = picked_victim(&self.deferred.parked);
        if in_place {
            self.pick_in_place(ev);
        } else {
            ev.t0 = self.dm.now_ns();
            self.take_sample(ev);
        }
        if ev.is_picked() {
            self.journal_set_fill(Some(ev.victim_object()));
        }
    }

    /// Ends `ev`: whether it evicted, its span, and an id it could not use.
    fn evict_finish(&mut self, ev: &mut Eviction, won: bool) {
        ev.wait = EvictWait::Done(won);
        if self.policy.is_adaptive() && !(won && ev.fetched != NO_ID) {
            // The id went into no slot (or never arrived): one position of
            // its shard's FIFO aged with no entry.
            self.stats.record_history_id_burnt();
        }
        self.span_since(Phase::Evict, ev.t0, won as u32);
    }

    /// Draws the eviction's next sample and issues its READ(s): a single
    /// `RDMA_READ` of [`DittoConfig::SAMPLE_SPAN_SLOTS`] consecutive slots of
    /// the sample-friendly table, which hold about K live objects — one READ
    /// per memory node touched when the span crosses a stripe boundary — or
    /// K independent slot READs in the scattered-metadata ablation.  The
    /// sampled *global* slot indices are independent of the striping, so
    /// striped and single-node caches examine identical candidates.
    ///
    /// The eviction's first sample also settles which history shard its id
    /// comes from.  An id carries its shard, and whoever meets the entry
    /// reads the shard off the id, so any shard will do — as long as entries
    /// spread over all of them, for the sharded FIFOs to jointly keep the
    /// configured history length and the counter FAAs to spread over the
    /// nodes.  The first sampled slot index is uniform and already drawn.
    ///
    /// An ahead eviction's first sample rides the `Set`'s first round
    /// ([`Eviction::riding`]), and a deferred re-sample goes out on a ring
    /// of its own ([`Self::park`]) or on the ring of the fill that carries
    /// it ([`Eviction::carry`]): neither is issued here.
    /// Any other goes out now.  `post` — beside the `Set`'s insert — has its
    /// verbs go out on a round of their own and returns with them in flight,
    /// as do several segments, or a sample with the FAA beside it, whatever
    /// `post` says: they share a doorbell and [`Self::collect_sample`] polls
    /// them.  Otherwise the one segment is read in place, a completed round
    /// trip.
    fn issue_sample(&mut self, ev: &mut Eviction, post: bool) {
        let ride = (ev.samples == 0 && ev.key.is_some()) || ev.deferred;
        ev.segments.clear();
        let first_idx = if self.config.enable_sample_friendly_table {
            let (start, count) = self
                .table
                .sample_span(&mut self.rng, DittoConfig::SAMPLE_SPAN_SLOTS);
            self.table
                .for_span_segments(start, count, |addr, slots| ev.segments.push((addr, slots)));
            start
        } else {
            let mut first_idx = None;
            for _ in 0..DittoConfig::SAMPLE_SIZE {
                let idx = self.rng.gen_range(0..self.table.num_slots());
                ev.segments.push((self.table.global_slot_addr(idx), 1));
                first_idx.get_or_insert(idx);
            }
            first_idx.unwrap_or(0)
        };
        if ev.samples == 0 && self.policy.is_adaptive() {
            ev.id_shard = first_idx % self.history.num_shards();
            ev.id_counter = Some(self.history.counter_addr(ev.id_shard));
        }
        ev.samples += 1;
        ev.wait = EvictWait::Sample;
        (ev.issued, ev.failed) = (!ride, false);
        if ride {
            return;
        }
        match ev.segments[..] {
            [(addr, slots)] if !post && ev.id_counter.is_none() => {
                ev.failed = self
                    .dm
                    .try_read_into(addr, &mut ev.sample.0[..slots * SLOT_SIZE])
                    .is_err();
            }
            _ => {
                let mut round = Round::new(Shape::Evict, Context::default());
                round.push_sample(&ev.segments, ev.id_counter, ev.owner);
                self.post_round(&round, &[], &mut alone(ev));
            }
        }
    }

    /// Waits for the eviction's current sample — and with the first one for
    /// the history id — and appends its live objects to the candidates.
    /// Returns the CPU work that took — slots decoded, candidates scored —
    /// for the caller to charge.  A faulted sample yields no candidates (the
    /// routine re-samples).  Slots decode in
    /// canonical segment order whatever order the READs completed in — ties
    /// in eviction priorities break by position — so a striped pool sees the
    /// candidates a single node does.  Each candidate's `freq` takes what
    /// this client's FC cache buffered for it: now, as the sample lands, or,
    /// of a deferred re-sample, when its READ went out ([`Eviction::fc_seen`]).
    /// A fill's eviction whose re-sample it waits for — in flight, or read
    /// in place — counts [`crate::CacheStats::resamples_waited`].
    fn collect_sample(&mut self, ev: &mut Eviction) -> (usize, usize) {
        debug_assert!(ev.issued, "the first lookup round posts a riding sample");
        if ev.samples > 1 && ev.park && (ev.in_flight > 0 || !ev.deferred) {
            self.stats.record_resample_waited();
        }
        self.await_eviction(ev);
        let deferred = std::mem::take(&mut ev.deferred);
        if ev.failed {
            return (0, 0);
        }
        let (mut offset, mut gathered) = (0, 0);
        for &(addr, slots) in ev.segments.iter() {
            let span = &ev.sample.0[offset..offset + slots * SLOT_SIZE];
            for (i, chunk) in span.chunks_exact(SLOT_SIZE).enumerate() {
                let slot_addr = addr.add((i * SLOT_SIZE) as u64);
                let mut slot = Slot::from_bytes(chunk);
                if !slot.atomic.is_object() || ev.excludes(slot_addr) {
                    continue;
                }
                slot.freq += if deferred {
                    ev.fc_seen[offset / SLOT_SIZE + i]
                } else {
                    self.buffered_accesses(slot_addr)
                };
                gathered += usize::from(ev.candidates.push_saturating((slot_addr, slot)));
            }
            offset += slots * SLOT_SIZE;
        }
        (offset / SLOT_SIZE, gathered)
    }

    /// Picks the victim among `ev`'s candidates and the word the CAS that
    /// takes it out of the table swaps in: an embedded history entry built
    /// from the id the eviction already holds.  A parked eviction's sample
    /// half closes with its pick ([`Self::take_sample`]); the op that books
    /// its victim CAS records the victim half.
    fn pick_victim(&mut self, ev: &mut Eviction) {
        ev.pick = self.select_victim(&ev.candidates);
        (ev.wait, ev.bumped) = (EvictWait::Picked, false);
        let victim = ev.candidates[ev.pick.idx].1;
        // A faulted counter FAA evicts without a history entry (one lost
        // ghost hit beats a wedged eviction path), like the non-adaptive
        // cache: the slot is just cleared.
        ev.word = if self.policy.is_adaptive() && ev.fetched != NO_ID {
            let shard = ev.id_shard;
            let (hist_id, new_counter) = EvictionHistory::id_from_counter(shard, ev.fetched);
            self.note_counter(shard, new_counter);
            AtomicField::for_history(victim.atomic.fp, hist_id).encode()
        } else {
            0
        };
    }

    /// Issues the picked victim's slot CAS: on a round of its own beside the
    /// `Set`'s insert, returning with it in flight, or else waited for in
    /// place.  A posted CAS goes out once: faulted, it reads as a lost race
    /// ([`Self::commit_victim`]), where the one waited for in place is
    /// retried like any slot CAS.  A parked eviction's victim half — the
    /// `Evict` span the carrying `Set` records — starts here.
    fn send_victim(&mut self, ev: &mut Eviction, beside_insert: bool) {
        if ev.park {
            ev.unpark(self.dm.now_ns());
        }
        if beside_insert {
            let shape = match ev.owner {
                Owner::Carried => Shape::Carry,
                _ => Shape::Evict,
            };
            self.post_victim(ev, shape, false);
            return;
        }
        let (victim_addr, victim) = ev.candidates[ev.pick.idx];
        let (expected, word) = (victim.atomic.encode(), ev.word);
        ev.wait = EvictWait::Victim;
        ev.observed = self
            .retry(|dm| dm.try_cas(victim_addr, expected, word))
            .unwrap_or(!expected);
    }

    /// Posts `ev`'s victim CAS, signalled, on a `shape` round of its own
    /// beside an insert, which its op leaves in flight if `left`.
    pub(super) fn post_victim(&mut self, ev: &mut Eviction, shape: Shape, left: bool) {
        let ctx = Context {
            beside_insert: true,
            ..Context::default()
        };
        let mut round = Round::new(shape, ctx);
        round.verbs.push(ev.victim_cas());
        round.left_in_flight = left;
        self.post_round(&round, &[], &mut alone(ev));
    }

    /// Waits for the victim CAS and, if it took the victim's word out of
    /// its slot, finishes the eviction: writes the history entry's word
    /// (expert bitmap and draw odds) and recycles the victim's memory.
    /// Returns `false` when the CAS lost a race — or faulted, which a CAS
    /// that went out posted cannot tell apart.
    fn commit_victim(&mut self, ev: &mut Eviction) -> bool {
        self.await_eviction(ev);
        let pick = ev.pick;
        let (victim_addr, victim) = ev.candidates[pick.idx];
        // Like any CAS from a word read off the live copy, one that took
        // effect needs no judgement (see `DittoClient::slot_cas`).
        let won = ev.observed == victim.atomic.encode();
        if !won {
            self.record_failed_slot_cas();
        }
        let embed = ev.word != 0;
        if won && embed {
            self.write_advisory(
                SampleFriendlyHashTable::insert_ts_addr(victim_addr),
                &pick.history_word.to_le_bytes(),
            );
            if !self.config.enable_lightweight_history {
                // Ablation: a separate remote history FIFO and index keep the
                // embedded entry's behaviour and add their traffic, against
                // scratch space (faults cost only the messages): the entry's
                // WRITE into the queue and its CAS into the index.  The
                // history-id FAA stands for the queue's tail FAA.
                let _ = self.dm.try_write_async(self.scratch.add(24), &[0u8; 16]);
                let _ = self.dm.try_cas(self.scratch.add(40), 0, 0);
            }
            self.stats.record_history_insert();
        }
        if won {
            for &step in DISPLACE
                .iter()
                .filter(|&&step| !(ev.bumped && step == Retire::Bump))
            {
                self.retire_victim(step, &victim, &pick);
            }
            // Scored and notified: the increments this client buffered for
            // the victim key go with it.
            self.discard_accesses(victim_addr);
            self.stats.record_eviction_path(ev.own_buckets.is_some());
        }
        won
    }

    /// Finishes `ev`, the eviction a fill carried, once the fill is booked:
    /// commits its victim CAS — or re-picks, should it have lost — in the
    /// op that books it, whose `Evict` span is the victim half from here.
    /// One still to pick, which no later round picked for, picks here in
    /// place ([`Self::pick_carried`]).
    pub(super) fn finish_carried(&mut self, ev: &mut Eviction) {
        if ev.is_sampling() {
            self.stats.record_carried_pick_in_place();
            self.pick_carried(ev, true);
        }
        ev.t0 = self.dm.now_ns();
        self.evict_advance(ev, false);
    }

    /// Bumps the key of `ev`'s picked victim, and drops this client's hint
    /// of it, while the victim CAS is still out: a fill's carried victim, at
    /// ring time.  A won CAS then only frees it.
    pub(super) fn bump_victim_ahead(&mut self, ev: &mut Eviction) {
        let (_, victim) = ev.candidates[ev.pick.idx];
        self.retire_victim(Retire::Bump, &victim, &ev.pick);
        ev.bumped = true;
    }

    /// One step of taking a victim out of the table, a sampled one or a
    /// bucket eviction's, once its slot CAS won ([`Retire`], whose order
    /// `Rule::BumpBeforeFree` fixes): its key's epoch moves — invalidating
    /// local-tier copies of the evicted key — and its hint goes, or the
    /// experts that voted for it hear of it and its memory is recycled.
    pub(super) fn retire_victim(&mut self, step: Retire, victim: &Slot, pick: &Pick) {
        match step {
            Retire::Bump => {
                self.bump_board(victim.hash);
                self.hints.forget(victim.hash);
            }
            Retire::Free => {
                let now = self.dm.now_ns();
                self.policy
                    .notify_evict(&pick.scored, pick.history_word, now);
                let (addr, bytes) = (victim.atomic.object_addr(), victim.atomic.object_bytes());
                self.alloc.free(&self.dm, addr, bytes as usize);
                self.stats.record_eviction(pick.chosen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{bucket_holds, Candidates, DittoClient, EvictWait, Eviction, OpKind};
    use crate::cache::DittoCache;
    use crate::client::round::Shape;
    use crate::config::DittoConfig;
    use crate::hash::fnv1a64;
    use crate::hashtable::SampleFriendlyHashTable;
    use crate::history::expert_bitmap;
    use crate::slot::{AtomicField, Slot, BUCKET_SIZE, SLOTS_PER_BUCKET, SLOT_SIZE};
    use ditto_dm::stats::{NodeSnapshot, VerbKind};
    use ditto_dm::{DmConfig, MemoryPool, Phase, RemoteAddr};
    use std::collections::BTreeMap;

    fn small_cache(capacity: u64) -> DittoCache {
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), DmConfig::default())
            .unwrap()
    }

    /// A cache over the pool `dm` describes and its client, deep in steady
    /// memory pressure after `Set`s alone: none of them followed a miss, so
    /// none parked an eviction.
    fn pressured_on(dm: DmConfig) -> (DittoCache, DittoClient) {
        pressured_as(DittoConfig::with_capacity(300), dm)
    }

    /// [`pressured_on`] for a cache of 300 objects configured otherwise.
    fn pressured_as(config: DittoConfig, dm: DmConfig) -> (DittoCache, DittoClient) {
        let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
        let mut client = cache.client();
        for i in 0..2_000u64 {
            client.set(&i.to_le_bytes(), &[1u8; 200]);
        }
        (cache, client)
    }

    fn pressured() -> (DittoCache, DittoClient) {
        pressured_on(DmConfig::default())
    }

    /// `key`'s cache-aside fill: a `Get` that misses, then the `Set`.
    fn fill_after_miss(client: &mut DittoClient, key: u64) {
        assert!(client.get(&key.to_le_bytes()).is_none(), "key {key}");
        client.set(&key.to_le_bytes(), &[1u8; 200]);
    }

    /// [`pressured_on`], then two fills after misses: the first parks its
    /// eviction and frees nothing, so the second evicts inline for its
    /// object, carries that victim and parks its own.  From here on every
    /// starved fill carries one victim, takes the spare and parks one.
    fn parking_on(dm: DmConfig) -> (DittoCache, DittoClient) {
        parking_as(DittoConfig::with_capacity(300), dm)
    }

    /// [`parking_on`] for a cache of 300 objects configured otherwise.
    fn parking_as(config: DittoConfig, dm: DmConfig) -> (DittoCache, DittoClient) {
        let (cache, mut client) = pressured_as(config, dm);
        for key in 4_000..4_002 {
            fill_after_miss(&mut client, key);
        }
        assert!(client.deferred.parked.is_some());
        (cache, client)
    }

    /// The parked eviction's victim once it has picked — its slot and its
    /// slot as sampled — and `None` while its pick waits for the re-sample
    /// it deferred, which the `Set` that carries it makes.
    fn parked_victim(client: &DittoClient) -> Option<(RemoteAddr, Slot)> {
        let parked = client.deferred.parked.as_ref().expect("a parked eviction");
        matches!(parked.wait, EvictWait::Picked).then(|| parked.candidates[parked.pick.idx])
    }

    fn timed_set_of(client: &mut DittoClient, key: u64, len: usize) -> u64 {
        let t0 = client.dm().now_ns();
        client.set(&key.to_le_bytes(), &vec![1u8; len]);
        client.dm().now_ns() - t0
    }

    fn timed_set(client: &mut DittoClient, key: u64) -> u64 {
        timed_set_of(client, key, 200)
    }

    /// Latency of a Set of a `len`-byte value that neither evicts nor
    /// fetches a segment.
    fn plain_set_ns(len: usize) -> u64 {
        let mut client = small_cache(1_000).client();
        timed_set_of(&mut client, 0, len);
        timed_set_of(&mut client, 1, len)
    }

    fn node(cache: &DittoCache) -> NodeSnapshot {
        cache.pool().stats().node_snapshots()[0]
    }

    #[test]
    fn pipelined_evicting_set_overlaps_the_eviction_with_its_own_verbs() {
        let (cache, mut client) = pressured();
        cache.stats().reset();
        let latencies: Vec<u64> = (2_000..2_100).map(|i| timed_set(&mut client, i)).collect();
        let paths = cache.stats();
        // No eviction runs inline.  Key 2 013's two buckets are full, so its
        // publish displaces a resident (a bucket eviction) besides the
        // sampled eviction it overlaps, and key 2 014's Set fits in the
        // memory that freed: 100 objects out, 99 by an overlapped eviction.
        assert_eq!(
            (
                paths.evictions_inline(),
                paths.evictions_overlapped(),
                paths.snapshot().bucket_evictions
            ),
            (0, 99, 1)
        );
        // Every eviction round trip hidden: a fill whose first sample sufficed
        // costs a plain Set plus what the FAA outlasts the bucket READs by,
        // plus posting charges (the sample READ and the FAA on the lookup's
        // doorbell, the victim CAS on its own), three more polls and the CPU
        // work on one sample: its span's slots decoded, about K candidates
        // scored — no serial CAS.
        let posting =
            DmConfig::DOORBELL_LATENCY_NS + 3 * DmConfig::VERB_ISSUE_NS + 3 * DmConfig::CQ_POLL_NS;
        let cpu = DittoConfig::SAMPLE_SPAN_SLOTS as u64 * DittoConfig::CPU_DECODE_SLOT_NS
            + DittoConfig::SAMPLE_SIZE as u64 * DittoConfig::CPU_SCORE_CANDIDATE_NS;
        let overhead = (DmConfig::FAA_LATENCY_NS - DmConfig::READ_LATENCY_NS) + posting + cpu;
        assert!(overhead < DmConfig::CAS_LATENCY_NS / 2, "{overhead}");
        assert!(*latencies.iter().min().unwrap() <= plain_set_ns(200) + overhead);
    }

    #[test]
    fn fills_cost_one_round_trip_per_sample_past_the_first() {
        let (cache, mut client) = pressured();
        let (plain, read) = (plain_set_ns(200), DmConfig::READ_LATENCY_NS);
        // Sample READs of an insert's eviction → how many such fills.
        let mut classes = BTreeMap::new();
        for key in 2_000..4_000 {
            let (reads, stats) = (node(&cache).reads, cache.stats().snapshot());
            let elapsed = timed_set(&mut client, key);
            let samples = node(&cache).reads - reads - 2;
            let now = cache.stats().snapshot();
            if now.evictions == stats.evictions {
                // A victim larger than the fill left room for two.
                assert_eq!(elapsed, plain, "key {key}");
                continue;
            }
            // The serial round trips a fill pays beyond a plain Set's.
            let serial = (elapsed - plain) / read;
            if now.bucket_evictions > stats.bucket_evictions {
                // A displacing publish: its eviction resumes after it, so the
                // victim CAS is a round trip of its own.
                assert_eq!(serial, samples, "key {key}: {elapsed} ns");
                continue;
            }
            // The first sample and the history id ride the lookup, the victim
            // CAS flies beside the publish: only re-samples are serial.  (With
            // the CAS waited for after the publish this was `samples`.)
            assert_eq!(serial, samples - 1, "key {key}: {elapsed} ns");
            *classes.entry(samples).or_insert(0u32) += 1;
        }
        // A span of three slots per candidate holds the two a pick needs
        // nearly always: 9 of these 1 988 fills re-sample.
        let fills: u32 = classes.values().sum();
        assert!(fills > 1_500, "{classes:?}");
        assert!(classes[&1] * 100 >= fills * 95, "{classes:?}");
        assert_eq!(cache.stats().history_ids_burnt(), 0);
        let paths = cache.stats();
        assert_eq!(
            paths.evictions_inline(),
            1,
            "the first eviction under pressure"
        );
    }

    #[test]
    fn a_fill_after_its_miss_reads_no_bucket() {
        // Two identical pressured clients, each carrying a parked victim,
        // fill a key right after it missed; one of them has forgotten what
        // the miss saw.  Each then reads the key back, hinted, which books
        // a fill still pending.  (The runs repeat exactly, up to the memo.)
        let fill = |memo: bool| {
            let (cache, mut client) = parking_on(DmConfig::default());
            let key = 5_000u64.to_le_bytes();
            assert!(client.get(&key).is_none());
            if !memo {
                client.miss_memo = None;
            }
            let (before, overlapped) = (node(&cache), cache.stats().evictions_overlapped());
            client.set(&key, &[1u8; 200]);
            assert_eq!(client.get(&key).as_deref(), Some(&[1u8; 200][..]));
            let after = node(&cache);
            // The victim it carried, freed when the `Get` after it booked
            // the victim CAS.
            assert_eq!(cache.stats().evictions_overlapped(), overlapped + 1);
            (
                after.reads - before.reads,
                after.messages - before.messages,
                after.bytes - before.bytes,
                after.doorbells - before.doorbells,
            )
        };
        let (memo, looked_up) = (fill(true), fill(false));
        // The memo'd fill READs its one sample and no bucket, and rings one
        // doorbell where the looked-up fill rings two — its lookup's, then
        // the carried victim CAS's beside its insert CAS.  Everything else —
        // the WRITEs, the FAA, both CASes, the `Get`'s slot and object READs
        // on a doorbell of their own — is the same.
        assert_eq!(memo.0, 1 + 2);
        assert_eq!(looked_up.0, memo.0 + 2);
        assert_eq!(looked_up.1, memo.1 + 2);
        assert_eq!(looked_up.2, memo.2 + 2 * BUCKET_SIZE as u64);
        assert_eq!((memo.3, looked_up.3), (1 + 1, 2 + 1));
    }

    #[test]
    fn a_fill_after_its_miss_rings_one_doorbell_and_the_next_op_frees_the_victim_it_carried() {
        let (cache, mut client) = parking_on(DmConfig::default());
        let inline = cache.stats().evictions_inline();
        // One doorbell carrying six verbs — the WRITE, the metadata WRITE,
        // the insert CAS, the carried victim CAS, the sample READ, the
        // history FAA — and nothing polled.  The pick of the victim it
        // carries was made from the sample the fill before it left in
        // flight, its CPU work hosted after this doorbell.
        let posting = DmConfig::DOORBELL_LATENCY_NS + 6 * DmConfig::VERB_ISSUE_NS;
        let (mut exact, mut victims) = (0, 0);
        let mut carried_before: Option<(RemoteAddr, Slot)> = None;
        for key in 5_000..5_100u64 {
            let (evictions, resident) = (
                cache.stats().snapshot().evictions,
                cache.pool().resident_object_bytes(0),
            );
            assert!(client.get(&key.to_le_bytes()).is_none());
            let before = node(&cache);
            let t0 = client.dm().now_ns();
            client.set(&key.to_le_bytes(), &[1u8; 200]);
            let elapsed = client.dm().now_ns() - t0;
            let after = node(&cache);
            assert_eq!(
                (after.cas - before.cas, after.faa - before.faa),
                (2, 1),
                "key {key}"
            );
            // The Get before it booked the fill before it: the victim that
            // fill carried is out of the table and its memory back on the
            // free list, which this Set allocated from — one object in, one
            // out.
            assert_eq!(cache.stats().snapshot().evictions, evictions + 1);
            assert_eq!(cache.pool().resident_object_bytes(0), resident);
            if let Some((victim_addr, victim)) = carried_before.take() {
                let word = AtomicField::decode(client.dm().read_u64(victim_addr));
                assert!(
                    word.is_history() && word.fp == victim.atomic.fp,
                    "key {key}"
                );
                victims += 1;
            }
            assert!(client.deferred.fill_key().is_some(), "the fill is pending");
            let carried = client
                .deferred
                .carried
                .as_ref()
                .expect("it carries a victim");
            carried_before = Some(carried.candidates[carried.pick.idx]);
            // The sample was the one READ (no counter refresh, no re-sample
            // in place): the fill rang one doorbell, and took its posting
            // and the hosted pick's CPU work on one span.
            if after.reads - before.reads == 1 {
                assert_eq!(after.doorbells - before.doorbells, 1, "key {key}");
                let cpu = DittoConfig::SAMPLE_SPAN_SLOTS as u64 * DittoConfig::CPU_DECODE_SLOT_NS
                    + carried.candidates.len() as u64 * DittoConfig::CPU_SCORE_CANDIDATE_NS;
                assert_eq!(elapsed, posting + cpu, "key {key}");
                exact += 1;
            }
        }
        assert!(exact >= 90, "{exact} of 100 fills read only their sample");
        assert!(victims >= 90, "{victims} of 100 carried victims taken out");
        // Each fill freed exactly the one victim it carried: none evicted
        // inline to make room.
        assert_eq!(cache.stats().evictions_inline(), inline);
        assert_eq!(cache.stats().history_ids_burnt(), 0);
    }

    /// A hinted `Get` of `key`, which the client just filled with `len`
    /// bytes: its latency, and the READs and doorbells it sent.
    fn timed_hinted_get(
        cache: &DittoCache,
        client: &mut DittoClient,
        key: u64,
        len: usize,
    ) -> (u64, u64, u64) {
        let before = node(cache);
        let t0 = client.dm().now_ns();
        assert_eq!(client.get(&key.to_le_bytes()), Some(vec![1u8; len]));
        let after = node(cache);
        let elapsed = client.dm().now_ns() - t0;
        (
            elapsed,
            after.reads - before.reads,
            after.doorbells - before.doorbells,
        )
    }

    /// `hinted_get_is_one_round_trip`'s formula for `key`'s object, whose
    /// publish left the client its hint.
    fn hinted_get_ns(client: &DittoClient, key: u64) -> u64 {
        let hint = client.set_hint(fnv1a64(&key.to_le_bytes()));
        let bytes = AtomicField::decode(hint.expect("a hint").word).object_bytes() as usize;
        let posting = DmConfig::DOORBELL_LATENCY_NS + 2 * DmConfig::VERB_ISSUE_NS;
        let slot = DmConfig::verb_latency_ns(VerbKind::Read, SLOT_SIZE);
        let object = DmConfig::verb_latency_ns(VerbKind::Read, bytes);
        let decode = DittoConfig::CPU_DECODE_SLOT_NS;
        posting + object.max(slot + DmConfig::CQ_POLL_NS + decode) + DmConfig::CQ_POLL_NS
    }

    #[test]
    fn the_op_after_a_fill_hosts_its_picks_cpu_work_under_its_own_flight() {
        let (cache, mut client) = parking_on(DmConfig::default().with_flight_recorder(1 << 16));
        // A whole span decoded and scored fits inside one READ's flight.
        let cpu = DittoConfig::SAMPLE_SPAN_SLOTS as u64
            * (DittoConfig::CPU_DECODE_SLOT_NS + DittoConfig::CPU_SCORE_CANDIDATE_NS);
        assert!(cpu < DmConfig::verb_latency_ns(VerbKind::Read, SLOT_SIZE));
        let (mut hosted, mut other) = (0, 4_001);
        for key in 5_000..5_050u64 {
            fill_after_miss(&mut client, key);
            // The fill before this one was booked by this one's `Set`, which
            // left its key's hint.  A hinted `Get` of that key polls this
            // fill's four completions before its own, which land later: it
            // takes at most a poll each longer than a plain hinted Get.
            let plain = hinted_get_ns(&client, other);
            let (elapsed, reads, doorbells) = timed_hinted_get(&cache, &mut client, other, 200);
            assert_eq!((reads, doorbells), (2, 1), "key {key}");
            assert!(
                elapsed <= plain + 4 * DmConfig::CQ_POLL_NS,
                "key {key}: {elapsed} ns"
            );
            let parked = client.deferred.parked.as_ref().expect("the fill parked");
            assert_eq!((parked.in_flight, parked.samples), (0, 1), "key {key}");
            // The next round decodes that sample and picks while its own two
            // READs fly: that `Get` takes no longer than a plain hinted one,
            // and records the eviction's sample half.
            let plain = hinted_get_ns(&client, other);
            client.dm().clear_flight_recorder();
            let t0 = client.dm().now_ns();
            let (elapsed, ..) = timed_hinted_get(&cache, &mut client, other, 200);
            if deferred(&client) {
                // Too short to pick from: its re-sample goes out instead.
                other = key;
                continue;
            }
            assert_eq!(elapsed, plain, "key {key}");
            let spans = client.dm().flight_spans();
            let evict: Vec<_> = spans.iter().filter(|s| s.phase == Phase::Evict).collect();
            assert_eq!(evict.len(), 1, "key {key}");
            assert!(t0 <= evict[0].start_ns && evict[0].end_ns <= t0 + elapsed);
            assert_eq!(evict[0].detail, 0, "the sample half");
            (hosted, other) = (hosted + 1, key);
        }
        assert!(hosted >= 45, "{hosted} of 50 picks hosted");
    }

    /// A fill that is not starved leaves the parked eviction parked, and its
    /// ring's flight hosts that eviction's decode once the sample has
    /// landed: the candidates come from the eviction's own sample, each
    /// slot's word as its READ found it, whatever other evictions read
    /// meanwhile.
    #[test]
    fn a_fill_that_leaves_the_parked_eviction_parked_decodes_that_evictions_own_sample() {
        let (cache, mut client) = parking_on(DmConfig::default());
        let node0 = cache.pool().node(0).unwrap();
        let word = |addr: RemoteAddr| node0.load_u64(addr.offset).unwrap();
        let mut checked = 0;
        for key in 5_000..5_040u64 {
            // The fill before this loop step parked its eviction, its sample
            // in flight: the words that READ found, as the fill's ring left
            // them.
            let parked = client.deferred.parked.as_ref().expect("a parked eviction");
            if !(parked.is_sampling() && parked.deferred && parked.in_flight > 0) {
                // Decoded already: the last fill found room and carried
                // nothing, and the next one parks anew.
                fill_after_miss(&mut client, key + 1_000);
                continue;
            }
            let read: BTreeMap<u64, u64> = parked
                .segments
                .iter()
                .flat_map(|&(addr, slots)| {
                    (0..slots).map(move |i| addr.add((i * SLOT_SIZE) as u64))
                })
                .map(|addr| (addr.pack(), word(addr)))
                .collect();
            // Another eviction reads a sample meanwhile, and the miss polls
            // the parked sample, which lands for the next op.
            client.evict_once();
            assert!(client.get(&key.to_le_bytes()).is_none(), "key {key}");
            assert!(parked_landed(&client), "key {key}");
            // A one-byte fill takes a block of the victim the last fill
            // freed and leaves the rest: not starved, it rings one round and
            // leaves the parked eviction parked, whose decode its flight
            // hosts.
            let fills = client.rounds_posted[Shape::Fill as usize];
            client.set(&key.to_le_bytes(), &[1u8]);
            assert_eq!(
                client.rounds_posted[Shape::Fill as usize],
                fills + 1,
                "key {key}"
            );
            assert!(carried(&client).is_none(), "key {key}");
            let parked = client.deferred.parked.as_ref().expect("still parked");
            assert!(!parked.is_sampling(), "key {key}: decoded");
            assert!(!parked.candidates.is_empty(), "key {key}");
            for &(addr, slot) in parked.candidates.iter() {
                assert_eq!(
                    Some(&slot.atomic.encode()),
                    read.get(&addr.pack()),
                    "key {key}: slot {addr:?}"
                );
            }
            checked += 1;
            // The next starved fill carries that victim and parks anew.
            fill_after_miss(&mut client, key + 1_000);
        }
        assert!(checked >= 20, "{checked} of 40");
    }

    /// Values of 2 KiB in a cache sized for 300 small objects: the memory
    /// holds a few dozen, and a 15-slot span often fewer than two.
    const BIG: usize = 2_048;

    /// A cache of [`BIG`] values on the pool `dm` describes and its client,
    /// past the two fills after which every fill parks (see
    /// [`parking_on`]).
    fn short_sampling_as(config: DittoConfig, dm: DmConfig) -> (DittoCache, DittoClient) {
        let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
        let mut client = cache.client();
        for key in 0..2_000u64 {
            client.set(&key.to_le_bytes(), &[1u8; BIG]);
        }
        for key in 4_000..4_002u64 {
            fill_big(&mut client, key);
        }
        (cache, client)
    }

    fn short_sampling_on(dm: DmConfig) -> (DittoCache, DittoClient) {
        short_sampling_as(DittoConfig::with_capacity(300), dm)
    }

    /// `key`'s cache-aside fill with a [`BIG`] value.
    /// Then two `Get`s of it: the first books the fill, the second's round
    /// decodes the sample the fill's eviction parked with — and picks, or
    /// posts a re-sample.
    fn fill_big(client: &mut DittoClient, key: u64) {
        assert!(client.get(&key.to_le_bytes()).is_none(), "key {key}");
        client.set(&key.to_le_bytes(), &[1u8; BIG]);
        for _ in 0..2 {
            assert!(client.get(&key.to_le_bytes()).is_some(), "key {key}");
        }
    }

    /// Whether the parked eviction waits for a re-sample the decode of its
    /// first sample deferred.
    fn deferred(client: &DittoClient) -> bool {
        client
            .deferred
            .parked
            .as_ref()
            .is_some_and(|ev| ev.deferred && ev.samples > 1)
    }

    /// Fills [`BIG`] values from `keys` until a fill's eviction defers its
    /// re-sample; returns that fill's key.
    /// Stops right after the op that defers it, its READ still in flight.
    fn fill_until_deferred(client: &mut DittoClient, keys: &mut std::ops::Range<u64>) -> u64 {
        for key in keys.by_ref() {
            let key_bytes = key.to_le_bytes();
            assert!(client.get(&key_bytes).is_none(), "key {key}");
            client.set(&key_bytes, &[1u8; BIG]);
            for _ in 0..2 {
                if deferred(client) {
                    return key;
                }
                assert!(client.get(&key_bytes).is_some(), "key {key}");
            }
            if deferred(client) {
                return key;
            }
        }
        panic!("no fill deferred its re-sample");
    }

    /// The slots a deferred pick chooses among, once each: the candidates
    /// its eviction holds and every slot of its re-sample's span (which may
    /// overlap the first).
    fn deferred_slots(client: &DittoClient) -> Vec<RemoteAddr> {
        let ev = client.deferred.parked.as_ref().expect("a parked eviction");
        let span = ev
            .segments
            .iter()
            .flat_map(|&(addr, slots)| (0..slots).map(move |i| addr.add((i * SLOT_SIZE) as u64)));
        let mut slots: Vec<_> = ev
            .candidates
            .iter()
            .map(|&(addr, _)| addr)
            .chain(span)
            .collect();
        slots.sort_by_key(|addr| addr.pack());
        slots.dedup();
        slots
    }

    /// A fill leaves its round in flight, and so does the round that
    /// decodes its eviction's short sample with the re-sample READ it posts,
    /// and the one that picks for an eviction a fill carried unpicked, with
    /// its victim CAS or its next re-sample: their flight spans carry op id
    /// 0, so the critical-path attribution gives each op no more time than
    /// its `begin_op`/`end_op` latency.  Each fill here is followed by two
    /// `Get`s of the key filled before it: the first polls the fill's
    /// completions, the second's round decodes its eviction's sample.
    #[test]
    fn rounds_left_in_flight_are_attributed_no_more_than_their_ops_latency() {
        let (cache, mut client) =
            short_sampling_on(DmConfig::default().with_flight_recorder(1 << 16));
        let latency = cache.pool().stats().latency();
        let (mut fills, mut resamples) = (0, 0);
        for key in 5_000..5_200u64 {
            for step in 0..4 {
                client.dm().clear_flight_recorder();
                let evict_rounds =
                    |client: &DittoClient| client.rounds_posted[Shape::Evict as usize];
                let (before, rounds) = (latency.sum_ns(), evict_rounds(&client));
                match step {
                    0 => assert!(client.get(&key.to_le_bytes()).is_none()),
                    1 => client.set(&key.to_le_bytes(), &[1u8; BIG]),
                    _ => assert!(client.get(&(key - 1).to_le_bytes()).is_some() || key == 5_000),
                }
                let spans = client.dm().flight_spans();
                let outside: Vec<_> = spans.iter().filter(|s| s.op_id == 0).collect();
                assert!(
                    outside.iter().all(|s| s.phase == Phase::Flight),
                    "{outside:?}"
                );
                let left = match step {
                    1 => client.deferred.fill_key().is_some(),
                    _ => evict_rounds(&client) > rounds,
                };
                assert_eq!(!outside.is_empty(), left, "key {key}, step {step}");
                fills += u32::from(step == 1 && left);
                resamples += u32::from(step > 1 && left);
                let table = ditto_dm::obs::attribution(&[(0, spans)]);
                assert_eq!(table.ops, 1);
                assert!(
                    table.elapsed_ns <= latency.sum_ns() - before,
                    "key {key}, step {step}"
                );
            }
        }
        assert_eq!(fills, 200);
        assert!(
            resamples > 5,
            "only {resamples} Gets left a round in flight"
        );
    }

    /// Sample spans decoded in the flight recorder: a sample's decode is
    /// one `decode` span of its slots, a bucket's is one of eight or of one.
    fn spans_decoded(client: &DittoClient) -> u64 {
        let span = DittoConfig::SAMPLE_SPAN_SLOTS as u32;
        let spans = client.dm().flight_spans();
        let decodes = spans.iter().filter(|s| s.phase == Phase::Decode);
        decodes
            .filter(|s| s.detail % span == 0)
            .map(|s| (s.detail / span) as u64)
            .sum()
    }

    /// Samples read and not decoded yet: the parked eviction's and the
    /// carried one's, in flight or landed.
    fn samples_undecoded(client: &DittoClient) -> u64 {
        let carried = client.deferred.carried.as_ref();
        let read = |ev: Option<&Eviction>| u64::from(ev.is_some_and(|ev| ev.deferred && ev.issued));
        read(client.deferred.parked.as_ref()) + read(carried)
    }

    /// The samples the eviction the pending fill carries unpicked has
    /// drawn, if it has one.
    fn unpicked_samples(client: &DittoClient) -> Option<usize> {
        carried(client)
            .filter(|ev| ev.is_sampling())
            .map(|ev| ev.samples)
    }

    /// What an op sent for the eviction the pending fill carried unpicked
    /// as it began, `before` samples drawn: the re-samples it drew, and
    /// whether it picked and sent the victim CAS — which a poll of the same
    /// op may book with the fill.
    fn sent_for_carried(client: &DittoClient, before: Option<usize>) -> (u64, u64) {
        match (before, unpicked_samples(client)) {
            (Some(before), Some(after)) => ((after - before) as u64, 0),
            (Some(_), None) => (0, 1),
            (None, _) => (0, 0),
        }
    }

    #[test]
    fn a_short_samples_re_sample_flies_under_the_next_op() {
        let (cache, mut client) =
            short_sampling_on(DmConfig::default().with_flight_recorder(1 << 16));
        let (resamples, fills) = (cache.stats().resamples_deferred(), client.rounds_posted);
        let (mut deferrals, mut from_resample, mut other) = (0, 0, 4_001u64);
        // The re-samples sent for the evictions the fills carried unpicked.
        let mut carried_resamples = 0;
        // Samples read before the loop and decoded in it, and the sample
        // READs the loop sends: every READ but a lookup's two, a miss's
        // buckets or a hinted `Get`'s slot and object.
        let read_before = samples_undecoded(&client);
        client.dm().clear_flight_recorder();
        let mut sample_reads = 0;
        for key in 5_000..5_200u64 {
            let (before, unpicked) = (node(&cache), unpicked_samples(&client));
            assert!(client.get(&key.to_le_bytes()).is_none());
            let reads = node(&cache).reads - before.reads - 2;
            // Its round may pick for the eviction the last fill carried
            // unpicked, or re-sample it: one READ.
            let (resampled, _) = sent_for_carried(&client, unpicked);
            assert_eq!(reads, resampled, "key {key}");
            (sample_reads, carried_resamples) =
                (sample_reads + reads, carried_resamples + resampled);
            // The slots a pick from a deferred re-sample chooses among, as
            // they stand before the `Set` that makes it.
            let node0 = cache.pool().node(0).unwrap();
            let word = |addr: RemoteAddr| node0.load_u64(addr.offset).unwrap();
            let pick_from: Vec<_> = if deferred(&client) {
                assert_eq!(client.deferred.parked.as_ref().unwrap().in_flight, 0);
                deferred_slots(&client)
                    .into_iter()
                    .map(|a| (a, word(a)))
                    .collect()
            } else {
                Vec::new()
            };
            let (before, waited) = (node(&cache), cache.stats().resamples_waited());
            let parked = client.deferred.parked.as_ref().map(|ev| ev.samples);
            client.set(&key.to_le_bytes(), &[1u8; BIG]);
            let reads = node(&cache).reads - before.reads;
            sample_reads += reads;
            // It takes up the parked eviction; should that not pick, its
            // ring carries the re-sample it draws.
            let resampled = match (parked, unpicked_samples(&client)) {
                (Some(parked), Some(after)) => (after - parked) as u64,
                _ => 0,
            };
            carried_resamples += resampled;
            // Its ring carries its own sample and that re-sample: nothing
            // read in place (but what the booking of the fill before it
            // waited for).
            if cache.stats().resamples_waited() == waited {
                assert_eq!(reads, 1 + resampled, "key {key}");
            }
            // A pick made in this Set, from a deferred re-sample that was
            // not short again: the victim is one of the slots it chose
            // among.  (The Set's insert may fill an empty one.)
            if !pick_from.is_empty() && reads == 1 {
                let taken = pick_from
                    .iter()
                    .filter(|&&(addr, was)| word(addr) != was)
                    .filter(|&&(addr, _)| AtomicField::decode(word(addr)).is_history())
                    .count();
                assert_eq!(taken, 1, "key {key}");
                from_resample += 1;
            }
            // The first hinted Get after the fill polls its completions; the
            // second's round decodes the fill's sample.  Short, it posts the
            // re-sample READ under its own READs' flight and does not wait
            // for it: it takes no longer than a plain hinted Get.  So does
            // what it sends for the eviction the fill carried unpicked: the
            // victim CAS or a further re-sample, on a ring of its own.
            let unpicked = unpicked_samples(&client);
            let (_, first_reads, _) = timed_hinted_get(&cache, &mut client, other, BIG);
            carried_resamples += sent_for_carried(&client, unpicked).0;
            let plain = hinted_get_ns(&client, other);
            let unpicked = unpicked_samples(&client);
            let (elapsed, reads, doorbells) = timed_hinted_get(&cache, &mut client, other, BIG);
            sample_reads += first_reads + reads - 4;
            other = key;
            let (resampled, cas) = sent_for_carried(&client, unpicked);
            carried_resamples += resampled;
            let deferral = u64::from(deferred(&client));
            let sent = (2 + deferral + resampled, 1 + deferral + resampled + cas);
            assert_eq!((reads, doorbells), sent, "key {key}");
            if deferral == 0 {
                continue;
            }
            deferrals += 1;
            if resampled + cas == 0 {
                // Nothing sent for a carried eviction: beside its own two
                // READs, the re-sample on a doorbell of its own.
                assert_eq!((reads, doorbells), (3, 2), "key {key}");
            }
            assert_eq!(elapsed, plain, "key {key}");
            let parked = client.deferred.parked.as_ref().unwrap();
            assert_eq!((parked.in_flight, parked.samples), (1, 2), "key {key}");
        }
        assert_eq!(
            cache.stats().resamples_deferred() - resamples,
            deferrals + carried_resamples
        );
        assert!(
            deferrals >= 50,
            "{deferrals} of 200 fills deferred a re-sample"
        );
        assert!(
            from_resample >= 20,
            "{from_resample} picks from a deferred re-sample"
        );
        // Every fill's round was the one-round fill, and each deferral one
        // round of its own.
        let posted = |shape: Shape| client.rounds_posted[shape as usize] - fills[shape as usize];
        assert_eq!(posted(Shape::Fill), 200);
        assert!(posted(Shape::Evict) >= deferrals);
        // Each sample READ sent — a fill's own, riding its round, a deferred
        // re-sample flying under a later op, one in place — is decoded once,
        // but what the last fill left undecoded.
        assert_eq!(
            spans_decoded(&client) + samples_undecoded(&client),
            sample_reads + read_before
        );
        // The scan books the last fill first, which frees its carried victim.
        let referenced = client.referenced_object_bytes_on(0);
        assert_eq!(cache.pool().resident_object_bytes(0), referenced);
    }

    /// The eviction the pending fill carries, if any.
    fn carried(client: &DittoClient) -> Option<&Eviction> {
        client.deferred.carried.as_ref()
    }

    /// Whether the pending fill carries an eviction still to pick.
    fn carried_unpicked(client: &DittoClient) -> bool {
        carried(client).is_some_and(Eviction::is_sampling)
    }

    /// Whether the parked eviction's first sample has landed undecoded: the
    /// next starved `Set` decodes it.
    fn parked_landed(client: &DittoClient) -> bool {
        let parked = client.deferred.parked.as_ref();
        parked.is_some_and(|ev| ev.is_sampling() && ev.issued && ev.in_flight == 0)
    }

    /// A fill right after a fill — a miss between them, whose polls booked
    /// the first fill's sample and decoded nothing — takes up the first
    /// fill's eviction and decodes that sample.  Short, the fill does not
    /// wait for a re-sample: its one ring carries the re-sample READ in
    /// place of the victim CAS, and it costs exactly what a one-round fill
    /// carrying a victim costs — one doorbell, six verbs and the decode of
    /// the sample it took up.
    #[test]
    fn a_fill_right_after_a_short_sampled_fill_costs_a_plain_one_round_fill() {
        let (cache, mut client) = short_sampling_on(DmConfig::default());
        let posting = DmConfig::DOORBELL_LATENCY_NS + 6 * DmConfig::VERB_ISSUE_NS;
        let decode = DittoConfig::SAMPLE_SPAN_SLOTS as u64 * DittoConfig::CPU_DECODE_SLOT_NS;
        let mut exact = 0;
        for key in 5_000..5_400u64 {
            assert!(client.get(&key.to_le_bytes()).is_none());
            let ready = client.deferred.fill_key().is_none() && parked_landed(&client);
            let (before, inline) = (node(&cache), cache.stats().evictions_inline());
            let elapsed = timed_set_of(&mut client, key, BIG);
            let after = node(&cache);
            if !ready || !carried_unpicked(&client) || cache.stats().evictions_inline() > inline {
                continue;
            }
            // Its own sample and the carried re-sample, on one doorbell.
            assert_eq!(after.reads - before.reads, 2, "key {key}");
            assert_eq!(after.doorbells - before.doorbells, 1, "key {key}");
            let ev = carried(&client).unwrap();
            assert!(ev.resample_drawn() || ev.issued, "key {key}");
            let score = ev.candidates.len() as u64 * DittoConfig::CPU_SCORE_CANDIDATE_NS;
            assert_eq!(elapsed, posting + decode + score, "key {key}");
            exact += 1;
        }
        assert!(exact >= 10, "only {exact} fills took up a short sample");
    }

    /// After a fill that carried an eviction unpicked, later `Get`s of other
    /// keys pick for it and free its victim: the first polls the re-sample,
    /// the next one's round decodes it and sends the victim CAS — or, short
    /// again, the next re-sample — and a later one's polls book the CAS.
    /// No `Get` waits for a re-sample, and the victim is freed before the
    /// next `Set` — or, after every re-sample short, the eviction given up:
    /// nothing leaked.  Returns how many such evictions re-sampled again
    /// under a `Get`.
    fn later_ops_free_the_carried_victim(keys: std::ops::Range<u64>) -> u64 {
        let (cache, mut client) = short_sampling_on(DmConfig::default());
        let (mut freed, mut again, mut other) = (0, 0, 4_001u64);
        for key in keys {
            assert!(client.get(&key.to_le_bytes()).is_none());
            client.set(&key.to_le_bytes(), &[1u8; BIG]);
            let unpicked = carried_unpicked(&client);
            let stats = cache.stats();
            let (evictions, burnt) = (stats.snapshot().evictions, stats.history_ids_burnt());
            let waited = stats.resamples_waited();
            let samples = |client: &DittoClient| carried(client).map_or(0, |ev| ev.samples);
            let (first, mut last) = (samples(&client), 0);
            // Two `Get`s per sample at most: eight samples in all.
            for _ in 0..2 * 8 + 1 {
                if client.deferred.fill_key().is_none() {
                    break;
                }
                last = last.max(samples(&client));
                // The key may have been evicted since: a miss rings a round
                // too.
                let _ = client.get(&other.to_le_bytes());
            }
            other = key;
            assert_eq!(stats.resamples_waited(), waited, "key {key}");
            if !unpicked {
                continue;
            }
            assert!(
                client.deferred.fill_key().is_none(),
                "key {key}: still pending"
            );
            let done = (stats.snapshot().evictions, stats.history_ids_burnt());
            assert!(
                done == (evictions + 1, burnt) || done == (evictions, burnt + 1),
                "key {key}"
            );
            again += u64::from(last > first);
            freed += 1;
        }
        assert!(
            freed >= 10,
            "only {freed} fills carried an eviction unpicked"
        );
        let referenced = client.referenced_object_bytes_on(0);
        assert_eq!(cache.pool().resident_object_bytes(0), referenced);
        again
    }

    #[test]
    fn a_later_op_frees_the_victim_a_fill_carried_unpicked() {
        later_ops_free_the_carried_victim(5_000..5_200);
    }

    #[test]
    fn a_later_op_frees_the_carried_victim_when_the_re_sample_is_short_again() {
        let again = later_ops_free_the_carried_victim(5_000..5_400);
        assert!(again >= 5, "only {again} re-samples were short again");
    }

    /// A fill that takes up a parked eviction whose sample landed undecoded
    /// picks before its ring: the decode that chose the victim ends before
    /// the ring carrying the victim CAS is posted, and so does the pick's
    /// `Evict` span, the sample half.
    #[test]
    fn the_ring_carrying_a_victim_cas_is_posted_after_the_decode_that_picked_it() {
        let (_cache, mut client) = parking_on(DmConfig::default().with_flight_recorder(1 << 16));
        let span = DittoConfig::SAMPLE_SPAN_SLOTS as u32;
        let mut checked = 0;
        for key in 5_000..5_100u64 {
            assert!(client.get(&key.to_le_bytes()).is_none());
            let ready = parked_landed(&client);
            client.dm().clear_flight_recorder();
            client.set(&key.to_le_bytes(), &[1u8; 200]);
            if !ready || !carried(&client).is_some_and(Eviction::is_picked) {
                continue;
            }
            let op = client.dm().op_id();
            let spans: Vec<_> = client
                .dm()
                .flight_spans()
                .into_iter()
                .filter(|s| s.op_id == op)
                .collect();
            let find = |phase: Phase, detail: u32| {
                let found = spans
                    .iter()
                    .find(|s| s.phase == phase && s.detail == detail);
                *found.unwrap_or_else(|| panic!("key {key}: no {phase:?} span: {spans:?}"))
            };
            let (decode, pick, ring) = (
                find(Phase::Decode, span),
                find(Phase::Evict, 0),
                find(Phase::Post, 6),
            );
            assert!(decode.end_ns <= ring.start_ns, "key {key}: {spans:?}");
            assert!(pick.end_ns <= ring.start_ns, "key {key}: {spans:?}");
            checked += 1;
        }
        assert!(checked >= 50, "only {checked} fills picked in place");
    }

    /// The first fill from key 5 000 on that defers its re-sample, on a
    /// cache of [`BIG`] values under LFU alone.
    fn lfu_deferring_fill() -> u64 {
        let config = DittoConfig::single_algorithm(300, "lfu");
        let (_cache, mut client) = short_sampling_as(config, DmConfig::default());
        fill_until_deferred(&mut client, &mut (5_000..6_000))
    }

    /// The pick of the eviction that fill defers, made after `flush` or
    /// not, by a client that read `hot` three times before the fill: the
    /// candidates — their slots and key hashes — and the one picked, and
    /// `hot`'s `freq` word, at the slot given with it, before and after the
    /// flush.  The runs repeat exactly up to the reads
    /// and the flush (see [`next_pick`]).
    fn deferred_lfu_pick(
        fill: u64,
        hot: Option<([u8; 8], RemoteAddr)>,
        flush: bool,
    ) -> (Vec<(RemoteAddr, u64)>, usize, [u64; 2]) {
        let config = DittoConfig::single_algorithm(300, "lfu");
        let (cache, mut client) = short_sampling_as(config, DmConfig::default());
        for key in 5_000..fill {
            fill_big(&mut client, key);
        }
        for (key, _) in hot.iter().flat_map(|hot| [hot; 3]) {
            assert!(client.get(key).is_some());
        }
        fill_big(&mut client, fill);
        assert!(deferred(&client), "the same fill defers");
        let node0 = cache.pool().node(0).unwrap();
        let freq_word = || {
            hot.map_or(0, |(_, slot)| {
                let freq_addr = SampleFriendlyHashTable::freq_addr(slot);
                node0.load_u64(freq_addr.offset).unwrap()
            })
        };
        let before = freq_word();
        if flush {
            client.flush();
        }
        let after = freq_word();
        let mut ev = client.take_parked(true, 0).expect("a pick");
        client.pick_in_place(&mut ev);
        let candidates = ev.candidates.iter().map(|&(addr, slot)| (addr, slot.hash));
        (candidates.collect(), ev.pick.idx, [before, after])
    }

    /// A deferred pick scores each candidate with what its `freq` word and
    /// this client's FC cache held when the re-sample READ went out.  Every
    /// key was set once and never read, so each word reads one, and LFU
    /// takes the first candidate; read three times before the fill, that
    /// key is kept and the second goes.  `flush` then drains the FC cache
    /// between the READ and the pick: the word reads four, the READ saw
    /// one, and the pick still counts four — the same victim.
    #[test]
    fn a_deferred_pick_scores_the_counts_its_read_saw() {
        let fill = lfu_deferring_fill();
        let (candidates, pick, _) = deferred_lfu_pick(fill, None, false);
        assert!(candidates.len() >= 2, "{candidates:?}");
        assert_eq!(pick, 0, "LFU breaks a tie by sample position");
        let key = (0..fill)
            .map(u64::to_le_bytes)
            .find(|key| fnv1a64(key) == candidates[0].1)
            .expect("a key the cache set");
        let hot = (key, candidates[0].0);

        let (same, kept, [before, after]) = deferred_lfu_pick(fill, Some(hot), false);
        assert_eq!((same.as_slice(), kept), (candidates.as_slice(), 1));
        assert_eq!((before, after), (1, 1), "buffered, under the threshold");
        let (same, kept, [before, after]) = deferred_lfu_pick(fill, Some(hot), true);
        assert_eq!((same.as_slice(), kept), (candidates.as_slice(), 1));
        assert_eq!(
            (before, after),
            (1, 4),
            "flushed between the READ and the pick"
        );
    }

    #[test]
    fn a_stripe_cutover_drops_a_parked_eviction_whose_re_sample_is_in_flight() {
        let (cache, mut client) = short_sampling_on(DmConfig::default().with_memory_nodes(2));
        fill_until_deferred(&mut client, &mut (5_000..6_000));
        assert!(client.deferred.parked.as_ref().unwrap().in_flight > 0);
        let burnt = cache.stats().history_ids_burnt();
        cache.pool().add_node().unwrap();
        assert!(cache.pump_migration().stripes_moved > 0);
        // The next op is a Set, whose polls meet the READ's completion
        // first unless the drop consumes it: it does, and burns the id.
        client.set(&6_000u64.to_le_bytes(), &[1u8; BIG]);
        assert_eq!(cache.stats().history_ids_burnt(), burnt + 1);
        assert!(client.dm().poll_cq().is_none());
        assert!(client
            .deferred
            .parked
            .as_ref()
            .is_none_or(|ev| ev.version == client.table.directory().version()));
        for mn in 0..3 {
            assert_eq!(
                cache.pool().resident_object_bytes(mn),
                client.referenced_object_bytes_on(mn),
                "node {mn}"
            );
        }
    }

    /// A stripe cutover between a fill that carried its eviction unpicked
    /// and the op that would pick for it: the candidates' addresses may name
    /// retired copies, so that op drops the eviction — its re-sample
    /// polled, its history id burnt, no victim CAS sent — and the fill is
    /// booked without a victim.  Nothing leaks.
    #[test]
    fn a_stripe_cutover_drops_an_unpicked_carried_eviction() {
        let (cache, mut client) = short_sampling_on(DmConfig::default().with_memory_nodes(2));
        let mut key = 5_000u64;
        loop {
            assert!(client.get(&key.to_le_bytes()).is_none());
            client.set(&key.to_le_bytes(), &[1u8; BIG]);
            key += 1;
            if carried_unpicked(&client) {
                break;
            }
            assert!(key < 6_000, "no fill carried its eviction unpicked");
        }
        let burnt = cache.stats().history_ids_burnt();
        cache.pool().add_node().unwrap();
        assert!(cache.pump_migration().stripes_moved > 0);
        // The first Get polls the re-sample, the second's round would pick.
        let cas = |cache: &DittoCache| {
            cache
                .pool()
                .stats()
                .node_snapshots()
                .iter()
                .map(|n| n.cas)
                .sum::<u64>()
        };
        let before = cas(&cache);
        for _ in 0..2 {
            let _ = client.get(&(key - 1).to_le_bytes());
        }
        assert_eq!(cas(&cache), before, "a victim CAS went out");
        assert!(carried(&client).is_none());
        assert_eq!(cache.stats().history_ids_burnt(), burnt + 1);
        // What is still out is the queue's — a parked re-sample —
        // and nobody else's.
        assert_eq!(
            client.dm().outstanding_completions(),
            client.deferred.in_flight()
        );
        for mn in 0..3 {
            assert_eq!(
                cache.pool().resident_object_bytes(mn),
                client.referenced_object_bytes_on(mn),
                "node {mn}"
            );
        }
    }

    #[test]
    fn a_client_dropped_with_a_re_sample_in_flight_sends_nothing_more() {
        let (cache, mut client) = short_sampling_on(DmConfig::default());
        fill_until_deferred(&mut client, &mut (5_000..6_000));
        // The pending fill is booked first: its carried eviction may still
        // have to pick, which the drop would do.
        client.settle_before(OpKind::Scan);
        assert_eq!(client.deferred.parked.as_ref().unwrap().in_flight, 1);
        let (burnt, messages) = (cache.stats().history_ids_burnt(), node(&cache).messages);
        drop(client);
        assert_eq!(cache.stats().history_ids_burnt(), burnt + 1);
        assert_eq!(node(&cache).messages, messages);
    }

    #[test]
    fn under_an_extension_expert_the_op_that_decodes_a_fills_sample_charges_its_pick() {
        let config = DittoConfig::single_algorithm(300, "gds");
        let (cache, mut client) = parking_as(config, DmConfig::default());
        fill_after_miss(&mut client, 5_000);
        assert!(client.deferred.parked.is_some());
        // The first `Get` after the fill books it; the second's round decodes
        // the sample the fill's eviction parked with and picks.  GDS scores
        // with its candidates' object headers, READs of that op's own, so
        // it charges the pick in place.
        assert!(client.get(&5_000u64.to_le_bytes()).is_some());
        let before = node(&cache);
        assert!(client.get(&5_000u64.to_le_bytes()).is_some());
        assert!(node(&cache).reads - before.reads > 2);
        assert!(parked_victim(&client).is_some());
        // The op after it sends only its own verbs.
        let plain = hinted_get_ns(&client, 5_000);
        let (elapsed, reads, doorbells) = timed_hinted_get(&cache, &mut client, 5_000, 200);
        assert_eq!((reads, doorbells), (2, 1));
        assert_eq!(elapsed, plain);
    }

    #[test]
    fn a_client_dropped_with_a_parked_eviction_burns_its_history_id() {
        let (cache, mut client) = parking_on(DmConfig::default());
        // A `Get` of the key the last fill filled books that fill.
        assert!(client.get(&4_001u64.to_le_bytes()).is_some());
        assert!(client.deferred.parked.is_some());
        let (burnt, messages) = (cache.stats().history_ids_burnt(), node(&cache).messages);
        drop(client);
        // Booked, and nothing sent.
        assert_eq!(cache.stats().history_ids_burnt(), burnt + 1);
        assert_eq!(node(&cache).messages, messages);
    }

    #[test]
    fn a_parked_victim_another_client_took_is_re_picked_by_the_carrying_set() {
        let (cache, mut client) = parking_on(DmConfig::default());
        // The first `Get` of the key the last fill filled books the fill, the
        // second's round picks the victim its eviction parked with.
        for _ in 0..2 {
            assert!(client.get(&4_001u64.to_le_bytes()).is_some());
        }
        let (victim_addr, victim) = parked_victim(&client).expect("a picked victim");
        let others: Vec<_> = {
            let parked = client.deferred.parked.as_ref().unwrap();
            let mut others = parked.candidates;
            others.swap_remove(parked.pick.idx);
            others.iter().copied().collect()
        };
        assert!(!others.is_empty());
        // Another client replaces the victim's key between the two fills:
        // the word the parked CAS expects is gone, and that client freed the
        // object it named.
        let victim_key = (0..2_000u64)
            .map(u64::to_le_bytes)
            .find(|key| fnv1a64(key) == victim.hash)
            .expect("the victim is one of the pressured keys");
        cache.client().set(&victim_key, &[2u8; 200]);
        assert_ne!(client.dm().read_u64(victim_addr), victim.atomic.encode());
        let (evictions, lost) = (
            cache.stats().snapshot().evictions,
            cache.pool().stats().contention().cas_retries,
        );
        fill_after_miss(&mut client, 5_000);
        assert!(client.get(&5_000u64.to_le_bytes()).is_some());
        // The carried CAS lost, and the booking of the fill re-picked among
        // the parked candidates — one of them, no other, is gone from the
        // table.
        assert_eq!(cache.pool().stats().contention().cas_retries, lost + 1);
        assert_eq!(cache.stats().snapshot().evictions, evictions + 1);
        let taken = others
            .iter()
            .filter(|(slot_addr, slot)| client.dm().read_u64(*slot_addr) != slot.atomic.encode())
            .count();
        assert_eq!(taken, 1);
        assert_eq!(cache.stats().history_ids_burnt(), 0);
        // Nothing leaked, nothing was freed twice, and the replaced value
        // stayed.
        let referenced = client.referenced_object_bytes_on(0);
        assert_eq!(cache.pool().resident_object_bytes(0), referenced);
        assert_eq!(client.get(&victim_key), Some(vec![2u8; 200]));
    }

    #[test]
    fn a_stripe_cutover_between_two_fills_drops_the_parked_eviction() {
        let (cache, mut client) = parking_on(DmConfig::default().with_memory_nodes(2));
        let burnt = cache.stats().history_ids_burnt();
        cache.pool().add_node().unwrap();
        assert!(cache.pump_migration().stripes_moved > 0);
        // The parked candidates' addresses name where their stripes were:
        // the next Set drops the eviction, and its history id is burnt.
        fill_after_miss(&mut client, 5_000);
        assert_eq!(cache.stats().history_ids_burnt(), burnt + 1);
        assert!(client
            .deferred
            .parked
            .as_ref()
            .is_none_or(|ev| ev.version == client.table.directory().version()));
        for mn in 0..3 {
            assert_eq!(
                cache.pool().resident_object_bytes(mn),
                client.referenced_object_bytes_on(mn),
                "node {mn}"
            );
        }
    }

    #[test]
    fn an_evictions_spans_stay_inside_the_ops_that_record_them() {
        // [`BIG`] values, so that many picks defer their re-sample: with
        // 200-byte ones a few in a thousand do, and which ones is a matter
        // of placement.
        let (cache, mut client) =
            short_sampling_on(DmConfig::default().with_flight_recorder(1 << 16));
        client.dm().clear_flight_recorder();
        let (evictions, mut windows) = (cache.stats().snapshot().evictions, BTreeMap::new());
        let stats = cache.stats();
        let inline = stats.evictions_inline();
        let burnt = stats.history_ids_burnt();
        // What the `Set`s found: a fill still pending, which they book, its
        // carried eviction still to pick, which they pick for, and the
        // parked one still to pick, which they decode and pick for.
        let (mut booked, mut residual, mut taken_up) = (0, 0, 0);
        let carried = |client: &DittoClient| client.deferred.carried.as_ref().map(|ev| ev.wait);
        // Each key missed, filled, then read twice: the first `Get` books the
        // fill, the second's round decodes the sample its eviction parked.
        for key in 5_000..5_200u64 {
            let key = key.to_le_bytes();
            for step in 0..4 {
                let t0 = client.dm().now_ns();
                match step {
                    0 => assert!(client.get(&key).is_none()),
                    1 => {
                        let pending = carried(&client);
                        booked += u64::from(pending.is_some());
                        residual += u64::from(matches!(pending, Some(EvictWait::Sample)));
                        let parked = client.deferred.parked.as_ref();
                        let unpicked = parked.is_some_and(Eviction::is_sampling);
                        client.set(&key, &[1u8; BIG]);
                        let picked = matches!(
                            carried(&client),
                            Some(EvictWait::Picked | EvictWait::Victim)
                        );
                        taken_up += u64::from(unpicked && picked);
                    }
                    _ => assert!(client.get(&key).is_some()),
                }
                windows.insert(client.dm().op_id(), (t0, client.dm().now_ns(), step != 1));
            }
        }
        let spans = client.dm().flight_spans();
        // Evict spans by half (sample, victim) and by the op that recorded
        // them (a Get, a Set).
        let mut halves = [[0u64; 2]; 2];
        // Recorded in the order they start, a carrying Set's two halves
        // too: its victim half starts once the pick it hosts is made.
        let evict_starts = spans.iter().filter(|s| s.phase == Phase::Evict);
        let starts: Vec<u64> = evict_starts.map(|s| s.start_ns).collect();
        assert!(starts.is_sorted(), "an Evict span started before the last");
        for span in spans.iter() {
            // A verb its op left in flight — a fill's round, a re-sample —
            // has its flight span in no op, and so does the post of a
            // re-sample sent once a looked-up fill's op has ended.
            let Some(&(t0, t1, get)) = windows.get(&span.op_id) else {
                assert_eq!(span.op_id, 0, "{span:?}");
                assert!(
                    matches!(span.phase, Phase::Post | Phase::Flight),
                    "{span:?}"
                );
                continue;
            };
            assert!(
                span.end_ns - span.start_ns <= t1 - t0,
                "{span:?} outlasts its op"
            );
            if span.phase == Phase::Evict {
                assert!(t0 <= span.start_ns && span.end_ns <= t1, "{span:?}");
                halves[span.detail as usize][!get as usize] += 1;
            }
        }
        // A Get after each fill recorded the sample half of the eviction the
        // fill parked — the pick's CPU work, under that Get's flight —
        // unless the sample was short and its re-sample went out: the next
        // fill, which carries it, then picks, before its own first ring.
        // Should that re-sample be short too, the fill's ring carries the
        // next one and a later Get's round picks — or, if none could, the
        // next fill, in place.  The Get whose polls met the last of a fill's
        // completions recorded the victim half of the eviction the fill
        // carried, but for the fills still pending at the next Set, which
        // books them.  A fill that freed none, its eviction given up after
        // every re-sample, leaves the next fill short of the spare: it
        // evicts inline for its object, both halves in one.  An eviction
        // given up burns its history id, and nothing else here does: one
        // inline eviction per id burnt.
        let (inline, given_up) = (
            stats.evictions_inline() - inline,
            stats.history_ids_burnt() - burnt,
        );
        assert_eq!(inline, given_up);
        assert!(residual > 0 && taken_up > 0, "{residual} {taken_up}");
        let (set_picks, set_victims) = (residual + taken_up, booked + inline);
        assert_eq!(
            halves,
            [
                [200 - set_picks, set_picks],
                [200 - set_victims, set_victims]
            ],
        );
        assert_eq!(cache.stats().snapshot().evictions, evictions + 200);
    }

    #[test]
    fn set_without_a_spare_falls_back_to_the_inline_eviction() {
        let (cache, mut client) = pressured();
        let paths = cache.stats();
        client.release_parked_memory(); // the spare goes back to the node
        let (inline, overlapped) = (paths.evictions_inline(), paths.evictions_overlapped());
        // A one-block object: the victim leaves room to spare, so this Set
        // runs the inline eviction and no other.
        let reads = node(&cache).reads;
        let cold = timed_set_of(&mut client, 5_000, 1);
        let samples = node(&cache).reads - reads - 2;
        assert_eq!(
            (paths.evictions_inline(), paths.evictions_overlapped()),
            (inline + 1, overlapped)
        );
        // It precedes the lookup: the first sample READ and the history FAA
        // behind one doorbell, further samples one READ each, the victim CAS
        // — a round trip fewer than READ, then FAA, then CAS.
        let (read, faa) = (DmConfig::READ_LATENCY_NS, DmConfig::FAA_LATENCY_NS);
        let resamples = (samples - 1) * read;
        let before_lookup = cold - plain_set_ns(1);
        let chain = read.max(faa) + DmConfig::CAS_LATENCY_NS;
        assert!(before_lookup >= chain + resamples, "{cold}");
        assert!(before_lookup < chain + read.min(faa) + resamples, "{cold}");
        // What is left of the victim does not hold a full-size object: the
        // next Set evicts inline once more and leaves a spare behind, the one
        // after it only overlaps.
        timed_set(&mut client, 5_001);
        timed_set(&mut client, 5_002);
        assert_eq!(
            (paths.evictions_inline(), paths.evictions_overlapped()),
            (inline + 2, overlapped + 2)
        );
    }

    /// Starts an inline eviction on a pressured cache — its first sample and
    /// its history FAA are out — for the caller to interfere with.
    fn begun() -> (DittoCache, DittoClient, Eviction) {
        let (cache, mut client) = pressured();
        let faa = node(&cache).faa;
        let ev = client.evict_begin(0, None);
        assert_eq!(node(&cache).faa - faa, 1, "the id rides the first sample");
        (cache, client, ev)
    }

    #[test]
    fn a_lost_victim_race_re_picks_with_the_id_it_holds() {
        // A dry run tells which slot the eviction picks first, and among
        // which candidates: the simulation repeats exactly.
        let (_cache, mut client, mut ev) = begun();
        assert_eq!(client.evict_advance(&mut ev, false), Some(true));
        let (first_pick, candidates) = (ev.candidates[ev.pick.idx], ev.candidates);
        assert!(candidates.len() >= 2);
        let steal = |cache: &DittoCache, victims: &[(_, crate::slot::Slot)]| {
            let thief = cache.pool().connect();
            for &(slot_addr, slot) in victims {
                let word = slot.atomic.encode();
                assert_eq!(thief.cas(slot_addr, word, 0), word);
            }
        };

        // Another client takes that slot between the sample and the CAS: the
        // loser re-picks among the rest under the id it already holds.
        let (cache, mut client, mut ev) = begun();
        steal(&cache, &[first_pick]);
        let (before, inserts) = (node(&cache), cache.stats().snapshot().history_inserts);
        assert_eq!(client.evict_advance(&mut ev, false), Some(true));
        let after = node(&cache);
        assert_eq!((after.faa - before.faa, after.cas - before.cas), (0, 2));
        assert_eq!(cache.stats().snapshot().history_inserts, inserts + 1);
        assert_eq!(cache.stats().history_ids_burnt(), 0);

        // Every candidate taken: the eviction gives up after its bounded
        // re-picks, and the id it acquired went into no slot.
        let (cache, mut client, mut ev) = begun();
        steal(&cache, &candidates);
        let before = node(&cache);
        assert_eq!(client.evict_advance(&mut ev, false), Some(false));
        let after = node(&cache);
        let tried = candidates.len().min(3) as u64;
        assert_eq!((after.faa - before.faa, after.cas - before.cas), (0, tried));
        assert_eq!(cache.stats().history_ids_burnt(), 1);
    }

    /// A cache [`pressured_as`] under `algorithm` alone and its client.
    fn pressured_single(algorithm: &str) -> (DittoCache, DittoClient) {
        let config = DittoConfig::single_algorithm(300, algorithm);
        pressured_as(config, DmConfig::default())
    }

    /// A dry run of the next eviction of `(cache, client)`: its candidates
    /// and the one it picked.  The simulation repeats exactly, and only an
    /// eviction draws from the client's RNG, so a copy that reads some keys
    /// first samples the same slots.
    fn next_pick((_cache, mut client): (DittoCache, DittoClient)) -> (Candidates, usize) {
        let mut ev = client.evict_begin(0, None);
        assert_eq!(client.evict_advance(&mut ev, false), Some(true));
        (ev.candidates, ev.pick.idx)
    }

    /// The key a pressured cache set whose hash `slot` carries.
    fn key_of(slot: &Slot) -> [u8; 8] {
        let key = (0..2_000u64).find(|i| fnv1a64(&i.to_le_bytes()) == slot.hash);
        key.expect("a key the cache set").to_le_bytes()
    }

    /// Under LFU alone, candidates whose remote `freq` words tie rank by the
    /// increments this client's FC cache still holds for them.  Every key of
    /// the pressured cache was set once and never read, so each word reads
    /// one, and LFU takes the sample's first candidate.  After three reads of
    /// that key — buffered, under the threshold of ten, so the word still
    /// reads one — the same sample keeps it and evicts the second.
    #[test]
    fn lfu_keeps_the_candidate_this_client_has_been_reading() {
        let (candidates, pick) = next_pick(pressured_single("lfu"));
        assert_eq!(pick, 0, "LFU breaks a tie by sample position");
        let [(read_addr, read), (other_addr, other)] = [candidates[0], candidates[1]];
        assert_eq!((read.freq, other.freq), (1, 1));

        let (_cache, mut client) = pressured_single("lfu");
        let key = key_of(&read);
        for _ in 0..3 {
            assert!(client.get(&key).is_some());
        }
        let freq_addr = SampleFriendlyHashTable::freq_addr(read_addr);
        assert_eq!(client.fc_cache().unwrap().pending_delta(freq_addr), 3);
        let mut ev = client.evict_begin(0, None);
        assert_eq!(client.evict_advance(&mut ev, false), Some(true));
        let addrs = |c: &Candidates| c.iter().map(|&(addr, _)| addr).collect::<Vec<_>>();
        assert_eq!(addrs(&ev.candidates), addrs(&candidates), "the same sample");
        assert_eq!(
            ev.candidates[ev.pick.idx],
            (other_addr, other),
            "the unread one goes"
        );
        assert!(client.get(&key).is_some(), "the read key stays");
    }

    /// A cache of four buckets under LFU alone, over a pool that never runs
    /// short, and its client, which filled the two buckets of a key with
    /// other keys, each set once: the key and those residents.  The runs
    /// repeat exactly.
    fn buckets_filled() -> (DittoCache, DittoClient, [u8; 8], Vec<[u8; 8]>) {
        let config = DittoConfig::single_algorithm(10, "lfu");
        let cache = DittoCache::new(MemoryPool::new(DmConfig::default()), config).unwrap();
        assert_eq!(cache.table.num_buckets(), 4);
        let mut client = cache.client();
        let table = cache.table.clone();
        let buckets = |key: &[u8; 8]| {
            let hash = fnv1a64(key);
            let mut both = [table.primary_bucket(hash), table.secondary_bucket(hash)];
            both.sort();
            both
        };
        let keys = (0u64..).map(u64::to_le_bytes);
        let key = keys
            .clone()
            .find(|k| buckets(k)[0] != buckets(k)[1])
            .unwrap();
        let full = |client: &DittoClient| {
            let slots = buckets(&key).map(|b| table.bucket_slots(&client.dm, b));
            slots.iter().flatten().all(|(_, s)| s.atomic.is_object())
        };
        let mut residents = Vec::new();
        for resident in keys.skip(1_000).filter(|k| buckets(k) == buckets(&key)) {
            if full(&client) {
                break;
            }
            client.set(&resident, &[1u8; 64]);
            residents.push(resident);
        }
        assert_eq!(residents.len(), 2 * SLOTS_PER_BUCKET);
        (cache, client, key, residents)
    }

    /// Sets the key of [`buckets_filled`], which displaces a resident by a
    /// bucket eviction, and returns that resident.
    fn displaced(
        (cache, mut client, key, residents): (DittoCache, DittoClient, [u8; 8], Vec<[u8; 8]>),
    ) -> [u8; 8] {
        let bucket_evictions = cache.stats().snapshot().bucket_evictions;
        client.set(&key, &[2u8; 64]);
        assert_eq!(
            cache.stats().snapshot().bucket_evictions,
            bucket_evictions + 1
        );
        assert_eq!(client.get(&key), Some(vec![2u8; 64]));
        let gone: Vec<_> = residents
            .into_iter()
            .filter(|k| client.get(k).is_none())
            .collect();
        assert_eq!(gone.len(), 1, "one resident displaced");
        gone[0]
    }

    /// A bucket eviction scores its candidates, like a sample's, with the
    /// increments this client's FC cache still buffers for them.  Every
    /// resident of [`buckets_filled`] was set once and never read, so each
    /// `freq` word reads one and LFU displaces one of them.  Read three
    /// times first — buffered, under the threshold of ten, so its word still
    /// reads one — that resident stays and another goes.
    #[test]
    fn a_bucket_eviction_keeps_the_resident_this_client_has_been_reading() {
        let first = displaced(buckets_filled());
        let (cache, mut client, key, residents) = buckets_filled();
        for _ in 0..3 {
            assert!(client.get(&first).is_some());
        }
        assert_eq!(client.fc_cache().unwrap().buffered_increments(), 3);
        let gone = displaced((cache, client, key, residents));
        assert_ne!(gone, first, "the read resident stays");
    }

    /// A key's buffered FC increments leave its slot with it.  FIFO alone
    /// picks its victim A whatever A's counts, and this client has read A
    /// four times, buffered, when it evicts A.  Key B then fills A's slot
    /// and is read twice, and once `flush` drains the FC cache the slot's
    /// `freq` word counts B alone: one for the insert and two reads — not
    /// A's four on top.
    #[test]
    fn a_keys_buffered_increments_leave_its_slot_with_it() {
        let (candidates, pick) = next_pick(pressured_single("fifo"));
        let (slot_addr, victim) = candidates[pick];
        let freq_addr = SampleFriendlyHashTable::freq_addr(slot_addr);

        let (cache, mut client) = pressured_single("fifo");
        let a = key_of(&victim);
        for _ in 0..4 {
            assert!(client.get(&a).is_some());
        }
        assert_eq!(client.fc_cache().unwrap().pending_delta(freq_addr), 4);
        assert!(client.evict_once());
        assert!(client.get(&a).is_none(), "FIFO took A");
        assert_eq!(client.fc_cache().unwrap().pending_delta(freq_addr), 0);

        // Fresh keys whose primary bucket is A's take its empty slots in
        // order, up to A's: the last of them is B.
        let table = cache.table.clone();
        let hash = victim.hash;
        let bucket = [table.primary_bucket(hash), table.secondary_bucket(hash)]
            .into_iter()
            .find(|&b| bucket_holds(table.bucket_addr(b), slot_addr))
            .expect("A sat in one of its buckets");
        let node = cache.pool().node(0).unwrap();
        let hash_addr = SampleFriendlyHashTable::hash_addr(slot_addr);
        let b = (2_000u64..)
            .map(u64::to_le_bytes)
            .filter(|key| table.primary_bucket(fnv1a64(key)) == bucket)
            .take(SLOTS_PER_BUCKET)
            .find(|key| {
                client.set(key, &[2u8; 200]);
                node.load_u64(hash_addr.offset) == Ok(fnv1a64(key))
            })
            .expect("a key of A's bucket filled A's slot");
        for _ in 0..2 {
            assert!(client.get(&b).is_some());
        }
        client.flush();
        assert_eq!(node.load_u64(freq_addr.offset), Ok(1 + 2));
    }

    /// A due FC flush waiting for the next hinted `Get` leaves its slot with
    /// its key too.  At `fc_threshold = 1` this client's read of FIFO's
    /// victim A makes A's count due, and it waits; the victim CAS that takes
    /// A out drops it, so neither the next hinted `Get` nor the `flush`
    /// sends an FAA.
    #[test]
    fn a_deferred_flush_leaves_its_slot_with_its_key() {
        let fifo = || {
            let mut config = DittoConfig::single_algorithm(300, "fifo");
            config.fc_threshold = 1;
            pressured_as(config, DmConfig::default())
        };
        let (candidates, pick) = next_pick(fifo());
        let (slot_addr, victim) = candidates[pick];
        let freq_addr = SampleFriendlyHashTable::freq_addr(slot_addr);

        let (cache, mut client) = fifo();
        let a = key_of(&victim);
        assert!(client.get(&a).is_some());
        assert_eq!(client.fc_cache().unwrap().pending_delta(freq_addr), 1);
        assert!(client.evict_once());
        assert!(client.get(&a).is_none(), "FIFO took A");
        assert!(client.fc_cache().unwrap().is_empty());

        let faas = || cache.pool().stats().node_snapshots()[0].faa;
        let (before, hinted) = (faas(), cache.stats().spec_reads_issued());
        let other = key_of(&candidates[(pick + 1) % candidates.len()].1);
        assert!(client.get(&other).is_some());
        assert_eq!(
            cache.stats().spec_reads_issued(),
            hinted + 1,
            "a hinted Get"
        );
        client.flush();
        assert_eq!(faas() - before, 1, "only the other key's own count");
    }

    /// An eviction across ops: the shard of its history id and the counter
    /// value its FAA fetched, which no other eviction shares.
    fn id_of(ev: &Eviction) -> (u64, u64) {
        (ev.id_shard, ev.fetched)
    }

    /// The deferred work [`all_deferred`] leaves: the carried eviction's and
    /// the parked one's ids, the weight reply's arrival, the FC riders'
    /// work-request ids, and the in-place picks and burnt ids counted so far.
    struct Held {
        carried: (u64, u64),
        parked: (u64, u64),
        reply: u64,
        riders: std::ops::Range<u64>,
        in_place: u64,
        burnt: u64,
    }

    /// What an op left of the work [`Held`] names: whether the fill's
    /// insert is still pending, the same eviction still carried and the
    /// same one still parked, the same reply still in flight, the same FC
    /// riders still recorded, and how many carried evictions it picked in
    /// place.
    #[derive(Debug, PartialEq, Eq)]
    struct Left {
        insert: bool,
        carried: bool,
        parked: bool,
        reply: bool,
        riders: bool,
        picked_in_place: u64,
    }

    fn held(cache: &DittoCache, client: &DittoClient) -> Option<Held> {
        let queue = &client.deferred;
        let carried = queue
            .carried
            .as_ref()
            .filter(|ev| ev.is_sampling() && ev.in_flight > 0)?;
        let parked = queue
            .parked
            .as_ref()
            .filter(|ev| ev.samples == 1 && ev.in_flight > 0)?;
        (queue.insert.is_some() && !queue.riders.is_empty()).then_some(())?;
        Some(Held {
            carried: id_of(carried),
            parked: id_of(parked),
            reply: queue.reply?.0.arrival_ns,
            riders: queue.riders.clone(),
            in_place: cache.stats().carried_picks_in_place(),
            burnt: cache.stats().history_ids_burnt(),
        })
    }

    fn left(cache: &DittoCache, client: &DittoClient, held: &Held) -> Left {
        let queue = &client.deferred;
        Left {
            insert: queue.insert.is_some(),
            carried: queue
                .carried
                .as_ref()
                .is_some_and(|ev| id_of(ev) == held.carried),
            parked: queue
                .parked
                .as_ref()
                .is_some_and(|ev| id_of(ev) == held.parked),
            reply: queue.reply.is_some_and(|(r, _)| r.arrival_ns == held.reply),
            riders: queue.riders == held.riders,
            picked_in_place: cache.stats().carried_picks_in_place() - held.in_place,
        }
    }

    /// A client holding every kind of deferred work at once: a one-round
    /// fill, its insert pending, that carries an eviction still to pick
    /// with its re-sample READ in flight; the fill's own eviction, parked
    /// with its first sample READ in flight; a weight sync's reply in
    /// flight; and the FC flushes the last hinted `Get` carried.  Returns
    /// the fill's key too.
    fn all_deferred() -> (DittoCache, DittoClient, u64, Held) {
        let (cache, mut client) = short_sampling_on(DmConfig::default());
        let mut hot = 4_001u64;
        for key in 5_000..5_400u64 {
            // Hits on the last fill's key until a hinted `Get` carries the
            // flush one of them made due.
            for _ in 0..30 {
                if client.get(&hot.to_le_bytes()).is_none() {
                    break;
                }
                if !client.deferred.riders.is_empty() {
                    break;
                }
            }
            assert!(client.get(&key.to_le_bytes()).is_none(), "key {key}");
            client.set(&key.to_le_bytes(), &[1u8; BIG]);
            hot = key;
            let word = expert_bitmap::with_odds(expert_bitmap::with_expert(0, 0), 0.5);
            client.policy.regret(word, 0);
            client.sync_weights();
            if let Some(held) = held(&cache, &client) {
                return (cache, client, key, held);
            }
        }
        panic!("no fill left every kind of deferred work");
    }

    /// Each op kind, run on a client holding every kind of deferred work
    /// ([`all_deferred`]), settles what it must first and leaves the rest.
    #[test]
    fn each_op_kind_settles_the_deferred_work_it_must() {
        type Op = fn(&mut DittoClient, u64);
        let left_as = |insert, carried, parked, reply, riders, picked_in_place| Left {
            insert,
            carried,
            parked,
            reply,
            riders,
            picked_in_place,
        };
        let cases: [(&str, Op, Left); 8] = [
            (
                "a Get of another key",
                |c, _| assert!(c.get(b"absent").is_none()),
                left_as(false, true, true, true, true, 0),
            ),
            (
                "a Get of the fill's key",
                |c, key| assert!(c.get(&key.to_le_bytes()).is_some()),
                left_as(false, true, true, true, false, 0),
            ),
            (
                "a Set",
                |c, _| c.set(b"another", &[1u8; BIG]),
                left_as(false, false, false, true, true, 1),
            ),
            (
                "flush",
                |c, _| c.flush(),
                left_as(false, false, true, false, true, 1),
            ),
            (
                "evict_once",
                |c, _| assert!(c.evict_once()),
                left_as(false, false, true, true, true, 1),
            ),
            (
                "pump_migration",
                |c, _| {
                    c.pump_migration(1);
                },
                left_as(false, false, true, true, true, 1),
            ),
            (
                "a recovery",
                |c, _| {
                    let _ = c.recover_crashed_client(7);
                },
                left_as(false, false, true, true, true, 1),
            ),
            (
                "a forensic scan",
                |c, _| {
                    c.referenced_object_bytes_on(0);
                },
                left_as(false, false, true, true, true, 1),
            ),
        ];
        for (name, op, expected) in cases {
            let (cache, mut client, key, held) = all_deferred();
            op(&mut client, key);
            assert_eq!(left(&cache, &client, &held), expected, "{name}");
        }
        // `Drop` books the fill whole and burns the parked eviction's id.
        let (cache, client, _, held) = all_deferred();
        drop(client);
        let stats = cache.stats();
        let settled = (
            stats.carried_picks_in_place() - held.in_place,
            stats.history_ids_burnt() - held.burnt,
        );
        assert_eq!(settled, (1, 1), "Drop");
    }
}
