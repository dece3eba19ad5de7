//! Sampling eviction: the one routine behind [`DittoClient::evict_once`], the
//! inline evictions of a starved allocation, the eviction a `Set` under
//! memory pressure runs *ahead*, beside its own lookup and publish, and the
//! one a fill *parks* for the next starved `Set` to carry, its pick's CPU
//! work charged under the client's next round (see the crate docs, *The
//! `Set` path under memory pressure*).

use super::lookup::bucket_holds;
use super::round::{
    alone, Context, Op, Owner, Retire, Riding, RidingSample, Round, Shape, Verb, DISPLACE,
};
use super::{Candidates, DittoClient, Pick, MAX_RETRIES};
use crate::config::DittoConfig;
use crate::hashtable::SampleFriendlyHashTable;
use crate::history::EvictionHistory;
use crate::inline::InlineVec;
use crate::slot::{AtomicField, Slot, SLOT_SIZE};
use ditto_dm::wqe::MAX_WQES;
use ditto_dm::{Phase, RemoteAddr};
use rand::Rng;
use std::ops::Range;

/// What [`Eviction::fetched`] holds until the history-id FAA lands — and
/// for good when it faulted, since an errored verb leaves its result buffer
/// alone.  No counter reaches it: they count up from zero by ones.
const NO_ID: u64 = u64::MAX;

/// Where an [`Eviction`] stands between its round trips.
#[derive(Clone, Copy, Default)]
pub(super) enum EvictWait {
    /// A sample READ is out (or waits to ride the `Set`'s first round),
    /// beside the first one the history-id FAA.
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
/// [`DittoClient::evict_advance`] — the one eviction routine — works on.
/// Run without pausing it is the inline eviction, every round trip waited
/// for in turn.  An eviction running *ahead* of a `Set` (see the crate docs)
/// has its first sample READ and history-id FAA ride the `Set`'s first round,
/// and is paused after each verb it posts beside the `Set`'s insert.  A
/// *parked* one stops once its victim is picked — its sample's decode and
/// scoring left for the client's next round to charge
/// ([`DittoClient::host_parked_pick`]) — and the next starved `Set` carries
/// its victim CAS ([`DittoClient::take_parked`]).  The round executor
/// ([`super::round`]) posts its verbs and books their completions on it.
#[derive(Default)]
pub(super) struct Eviction {
    /// Start of the `Evict` span: when the first sample was issued — or, of a
    /// parked eviction, when the `Set` that carries it posted its victim CAS
    /// (the round that charges its pick's CPU work records the sample half).
    t0: u64,
    min_blocks: u8,
    /// The stripe directory's version when the eviction began: a parked
    /// eviction is dropped once it moved ([`DittoClient::take_parked`]).
    version: u64,
    /// The key of the `Set` this eviction runs ahead of, and that key's two
    /// buckets, whose slots are never candidates
    /// ([`Rule::Sample`](super::round::Rule::Sample)).
    key: Option<u64>,
    own_buckets: Option<[RemoteAddr; 2]>,
    /// The victim slot of the parked eviction the same `Set` carries: never
    /// a candidate either, for that `Set` takes it out.
    carried_victim: Option<RemoteAddr>,
    /// Whether, once picked, the victim waits for the next starved `Set`.
    pub(super) park: bool,
    /// Whether a `Set` carries this eviction, parked by an earlier one.
    carried: bool,
    candidates: Candidates,
    samples: usize,
    retries: usize,
    pub(super) wait: EvictWait,
    /// Physical READ segments of the current sample, in canonical order.
    segments: InlineVec<(RemoteAddr, usize), MAX_WQES>,
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
}

impl Eviction {
    /// Whose verbs this eviction's are in a `Set`'s rounds.
    pub(super) fn owner(&self) -> Owner {
        if self.carried {
            Owner::Carried
        } else {
            Owner::Own
        }
    }

    /// The sample waiting to ride the `Set`'s first round, as the planner
    /// takes it ([`super::round::Plan::own`]): its READ segments, the history counter its FAA goes to,
    /// and what it leaves out.
    pub(super) fn riding(&self) -> Option<RidingSample<'_>> {
        let riding = Riding {
            key: self.key,
            victim: self.carried_victim,
            park: self.park,
        };
        (!self.issued).then_some((&self.segments[..], self.id_counter, riding))
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
            owner: self.owner(),
        }
    }

    /// Whether `slot_addr` may not be a candidate: a slot of the `Set`'s own
    /// buckets, or the victim slot of the eviction it carries.
    fn excludes(&self, slot_addr: RemoteAddr) -> bool {
        self.carried_victim == Some(slot_addr)
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

    /// Takes a parked eviction up again in the `Set` that carries it: from
    /// `now` on it runs like any other, its `Evict` span the victim half.
    pub(super) fn unpark(&mut self, now: u64) {
        (self.park, self.t0) = (false, now);
    }
}

impl DittoClient {
    /// Performs one sampling eviction.  Returns `true` when an object was
    /// evicted and its memory recycled.
    pub fn evict_once(&mut self) -> bool {
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
        let mut ev = self.evict_begin(min_blocks);
        self.evict_advance(&mut ev, false)
            .expect("an eviction that never pauses runs to completion")
    }

    fn new_eviction(&self, min_blocks: u8) -> Eviction {
        Eviction {
            t0: self.dm.now_ns(),
            min_blocks,
            version: self.table.directory().version(),
            retries: 3,
            fetched: NO_ID,
            ..Eviction::default()
        }
    }

    /// Starts a sampling eviction by issuing its first sample and, beside
    /// it, the FAA for its history id.
    pub(super) fn evict_begin(&mut self, min_blocks: u8) -> Eviction {
        let mut ev = self.new_eviction(min_blocks);
        self.issue_sample(&mut ev, false, false);
        ev
    }

    /// Starts the eviction a starved `Set` of `hash` runs *ahead* (see
    /// [`Eviction`]): its first sample and the history-id FAA wait to ride
    /// the `Set`'s first doorbell, and no slot of the key's two buckets — nor
    /// the victim slot of the eviction `carried`, which this `Set` takes out
    /// — is a candidate.  With `park` its victim, once picked, waits for the
    /// next starved `Set`.
    pub(super) fn evict_ahead(
        &mut self,
        min_blocks: u8,
        hash: u64,
        carried: Option<&Eviction>,
        park: bool,
    ) -> Eviction {
        let own = [
            self.table.primary_bucket(hash),
            self.table.secondary_bucket(hash),
        ]
        .map(|bucket| self.table.bucket_addr(bucket));
        let mut ev = Eviction {
            key: Some(hash),
            own_buckets: Some(own),
            carried_victim: carried.map(Eviction::victim_addr),
            park,
            ..self.new_eviction(min_blocks)
        };
        self.issue_sample(&mut ev, false, true);
        ev
    }

    /// The eviction a previous fill parked, if this `Set` is `starved` and
    /// so carries it.  Any `Set` drops it instead once a stripe cutover has
    /// moved the directory since it began — its candidates' addresses may
    /// name retired copies — and its history id is burnt.
    pub(super) fn take_parked(&mut self, starved: bool) -> Option<Eviction> {
        let mut ev = self.parked_eviction.take()?;
        if ev.version != self.table.directory().version() {
            if self.policy.is_adaptive() {
                self.stats.record_history_id_burnt();
            }
            return None;
        }
        if !starved {
            self.parked_eviction = Some(ev);
            return None;
        }
        ev.carried = true;
        Some(ev)
    }

    /// Advances `ev`: collect the sample (and the history id), re-sample
    /// while it holds too few candidates, pick a victim and CAS it out,
    /// fall back to the next-best candidate on a lost race.  Run
    /// `beside_insert` — the `Set` publishes by an insert next — it returns
    /// `None` right after posting a verb, for that publish to overlap and
    /// the caller to resume it later; otherwise it waits in place and runs
    /// to `Some(won)`.  A parked eviction returns `None` once its victim is
    /// picked, either way — unless a `Set` carries it.
    pub(super) fn evict_advance(&mut self, ev: &mut Eviction, beside_insert: bool) -> Option<bool> {
        loop {
            match ev.wait {
                EvictWait::Done(won) => return Some(won),
                EvictWait::Sample => {
                    let cpu = self.collect_sample(ev);
                    let found = ev.candidates.len();
                    let short = found < 2 && (found == 0 || ev.samples < 4) && ev.samples < 8;
                    // Only a pick defers its CPU work: a re-sample or a
                    // give-up waits for the decode that decided it.
                    if found > 0 && !short && self.hosts_pick(ev) {
                        self.hosted_cpu.0 += cpu.0;
                        self.hosted_cpu.1 += cpu.1;
                    } else {
                        self.charge_decode(cpu.0);
                        self.charge_score(cpu.1);
                    }
                    if short {
                        self.issue_sample(ev, beside_insert, false);
                        if beside_insert {
                            return None;
                        }
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
                    }
                }
                EvictWait::Picked if ev.park && !ev.carried => return None,
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

    /// Whether the pick of `ev`, a fill's own parked eviction, leaves its CPU
    /// work to the client's next round: it posts no verb, so nothing waits
    /// on it.  An extension expert's scoring READs object headers, so under
    /// one the fill picks in place.
    fn hosts_pick(&self, ev: &Eviction) -> bool {
        ev.park && !ev.carried && !self.use_extension
    }

    /// Charges the CPU work of the pick the last fill parked — its sample's
    /// decode and scoring, that eviction's sample half and `Evict` span —
    /// between a round's doorbell and its first poll, under the round trip
    /// ([`super::round`]'s `post_round`, and `search_hinted`'s ring of both
    /// READs).  The pick itself was made where the sample
    /// landed, on the counts and at the time of its landing.
    pub(super) fn host_parked_pick(&mut self) {
        let (slots, scored) = std::mem::take(&mut self.hosted_cpu);
        if slots == 0 {
            return;
        }
        let t0 = self.dm.now_ns();
        self.charge_decode(slots);
        self.charge_score(scored);
        self.dm.record_span(Phase::Evict, t0, self.dm.now_ns(), 0);
    }

    /// Ends `ev`: whether it evicted, its span, and an id it could not use.
    fn evict_finish(&mut self, ev: &mut Eviction, won: bool) {
        ev.wait = EvictWait::Done(won);
        if self.policy.is_adaptive() && !(won && ev.fetched != NO_ID) {
            // The id went into no slot (or never arrived): one position of
            // its shard's FIFO aged with no entry.
            self.stats.record_history_id_burnt();
        }
        self.dm
            .record_span(Phase::Evict, ev.t0, self.dm.now_ns(), won as u32);
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
    /// `ride` leaves the verbs to ride the `Set`'s first round
    /// ([`Eviction::riding`]); `post` — beside the `Set`'s insert — has them
    /// go out on a round of their own and returns with them in flight, as do
    /// several segments, or a sample with the FAA beside it, whatever `post`
    /// says: they share a doorbell and [`Self::collect_sample`] polls them.
    /// Otherwise the one segment is read in place, a completed round trip.
    fn issue_sample(&mut self, ev: &mut Eviction, post: bool, ride: bool) {
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
                let buf = &mut self.sample_buf[..slots * SLOT_SIZE];
                ev.failed = self.dm.try_read_into(addr, buf).is_err();
            }
            _ => {
                let mut round = Round::new(Shape::Evict, Context::default());
                round.push_sample(&ev.segments, ev.id_counter);
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
    /// candidates a single node does.
    fn collect_sample(&mut self, ev: &mut Eviction) -> (usize, usize) {
        debug_assert!(ev.issued, "the first lookup round posts a riding sample");
        self.await_eviction(ev);
        if ev.failed {
            return (0, 0);
        }
        let (mut offset, mut gathered) = (0, 0);
        for &(addr, slots) in ev.segments.iter() {
            let bytes = &self.sample_buf[offset..offset + slots * SLOT_SIZE];
            for (i, chunk) in bytes.chunks_exact(SLOT_SIZE).enumerate() {
                let slot_addr = addr.add((i * SLOT_SIZE) as u64);
                let slot = Slot::from_bytes(chunk);
                if slot.atomic.is_object()
                    && !ev.excludes(slot_addr)
                    && ev.candidates.push_saturating((slot_addr, slot))
                {
                    gathered += 1;
                }
            }
            offset += slots * SLOT_SIZE;
        }
        (offset / SLOT_SIZE, gathered)
    }

    /// Picks the victim among `ev`'s candidates and the word the CAS that
    /// takes it out of the table swaps in: an embedded history entry built
    /// from the id the eviction already holds.  A parked eviction's sample
    /// half is its pick's CPU work, which the client's next round records
    /// ([`Self::host_parked_pick`]) — or the fill, under an extension
    /// expert: its span closes here.  The `Set` that carries it records the
    /// victim half.
    fn pick_victim(&mut self, ev: &mut Eviction) {
        ev.pick = self.select_victim(&ev.candidates);
        ev.wait = EvictWait::Picked;
        let victim = ev.candidates[ev.pick.idx].1;
        // A faulted counter FAA evicts without a history entry (one lost
        // ghost hit beats a wedged eviction path), like the non-adaptive
        // cache: the slot is just cleared.
        ev.word = if self.policy.is_adaptive() && ev.fetched != NO_ID {
            let shard = ev.id_shard;
            let (hist_id, new_counter) = EvictionHistory::id_from_counter(shard, ev.fetched);
            self.counter_estimates[shard as usize] = new_counter;
            self.counters_known[shard as usize] = true;
            AtomicField::for_history(victim.atomic.fp, hist_id).encode()
        } else {
            0
        };
        if ev.park && !self.hosts_pick(ev) {
            self.dm
                .record_span(Phase::Evict, ev.t0, self.dm.now_ns(), 0);
        }
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
            let shape = [Shape::Evict, Shape::Carry][ev.carried as usize];
            let ctx = Context {
                beside_insert: true,
                ..Context::default()
            };
            let mut round = Round::new(shape, ctx);
            round.verbs.push(ev.victim_cas());
            self.post_round(&round, &[], &mut alone(ev));
            return;
        }
        let (victim_addr, victim) = ev.candidates[ev.pick.idx];
        let (expected, word) = (victim.atomic.encode(), ev.word);
        ev.wait = EvictWait::Victim;
        ev.observed = self
            .dm
            .with_retry(MAX_RETRIES, |dm| dm.try_cas(victim_addr, expected, word))
            .unwrap_or(!expected);
    }

    /// Waits for the victim CAS and, if it took the victim's word out of
    /// its slot, finishes the eviction: writes the history entry's bitmap
    /// and recycles the victim's memory.  Returns `false` when the CAS lost a
    /// race — or faulted, which a CAS that went out posted cannot tell apart.
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
            self.write_slot_meta(
                SampleFriendlyHashTable::insert_ts_addr(victim_addr),
                &pick.bitmap.to_le_bytes(),
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
            for &step in DISPLACE {
                self.retire_victim(step, &victim, &pick);
            }
            // Scored and notified: the increments this client buffered for
            // the victim key go with it.
            self.discard_accesses(victim_addr);
            self.stats.record_eviction_path(ev.own_buckets.is_some());
        }
        won
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
                self.policy.notify_evict(&pick.scored, pick.bitmap, now);
                let (addr, bytes) = (victim.atomic.object_addr(), victim.atomic.object_bytes());
                self.alloc.free(&self.dm, addr, bytes as usize);
                self.stats.record_eviction(pick.chosen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{bucket_holds, Candidates, DittoClient, Eviction};
    use crate::cache::DittoCache;
    use crate::config::DittoConfig;
    use crate::hash::fnv1a64;
    use crate::hashtable::SampleFriendlyHashTable;
    use crate::slot::{AtomicField, Slot, BUCKET_SIZE, SLOTS_PER_BUCKET, SLOT_SIZE};
    use ditto_dm::stats::{NodeSnapshot, VerbKind};
    use ditto_dm::{DmConfig, Phase, RemoteAddr};
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
        assert!(client.parked_eviction.is_some());
        (cache, client)
    }

    /// The parked eviction's victim: its slot and its slot as sampled.
    fn parked_victim(client: &DittoClient) -> (RemoteAddr, Slot) {
        let parked = client.parked_eviction.as_ref().expect("a parked eviction");
        parked.candidates[parked.pick.idx]
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
        assert_eq!(
            (paths.evictions_inline(), paths.evictions_overlapped()),
            (0, 100)
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
        // the miss saw.  (The runs repeat exactly, up to the memo.)
        let fill = |memo: bool| {
            let (cache, mut client) = parking_on(DmConfig::default());
            let key = 5_000u64.to_le_bytes();
            assert!(client.get(&key).is_none());
            if !memo {
                client.miss_memo = None;
            }
            let (before, overlapped) = (node(&cache), cache.stats().evictions_overlapped());
            client.set(&key, &[1u8; 200]);
            let after = node(&cache);
            assert_eq!(cache.stats().evictions_overlapped(), overlapped + 1);
            assert_eq!(client.get(&key).as_deref(), Some(&[1u8; 200][..]));
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
        // the WRITE, the FAA, both CASes — is the same.
        assert_eq!(memo.0, 1);
        assert_eq!(looked_up.0, memo.0 + 2);
        assert_eq!(looked_up.1, memo.1 + 2);
        assert_eq!(looked_up.2, memo.2 + 2 * BUCKET_SIZE as u64);
        assert_eq!((memo.3, looked_up.3), (1, 2));
    }

    #[test]
    fn a_fill_after_its_miss_is_one_round_trip_that_frees_the_victim_it_carries() {
        let (cache, mut client) = parking_on(DmConfig::default());
        let inline = cache.stats().evictions_inline();
        // One doorbell carrying five verbs — the WRITE, the insert CAS, the
        // carried victim CAS, the sample READ, the history FAA — all landing
        // by the slower atomic's flight; four completions polled (the WRITE
        // is unsignalled); and no CPU work on the sample, which the client's
        // next round charges.
        let posting = DmConfig::DOORBELL_LATENCY_NS + 5 * DmConfig::VERB_ISSUE_NS;
        let round = posting
            + DmConfig::CAS_LATENCY_NS.max(DmConfig::FAA_LATENCY_NS)
            + 4 * DmConfig::CQ_POLL_NS;
        let mut exact = 0;
        for key in 5_000..5_100u64 {
            assert!(client.get(&key.to_le_bytes()).is_none());
            let (victim_addr, victim) = parked_victim(&client);
            let (before, evictions) = (node(&cache), cache.stats().snapshot().evictions);
            let resident = cache.pool().resident_object_bytes(0);
            let t0 = client.dm().now_ns();
            client.set(&key.to_le_bytes(), &[1u8; 200]);
            let elapsed = client.dm().now_ns() - t0;
            let after = node(&cache);
            assert_eq!(
                (after.cas - before.cas, after.faa - before.faa),
                (2, 1),
                "key {key}"
            );
            // The carried victim is out of the table and its memory back on
            // the free list in this very Set: one object in, one out.
            assert_eq!(cache.stats().snapshot().evictions, evictions + 1);
            let word = AtomicField::decode(client.dm().read_u64(victim_addr));
            assert!(
                word.is_history() && word.fp == victim.atomic.fp,
                "key {key}"
            );
            assert_eq!(cache.pool().resident_object_bytes(0), resident);
            // The sample was the one READ (no counter refresh, no re-sample):
            // the fill rang one doorbell and took exactly one round trip.  It
            // picked its own victim, and left the CPU work on that one span
            // for the next round.
            if after.reads - before.reads == 1 {
                assert_eq!(after.doorbells - before.doorbells, 1, "key {key}");
                assert_eq!(elapsed, round, "key {key}");
                let scored = client.parked_eviction.as_ref().unwrap().candidates.len();
                let hosted = (DittoConfig::SAMPLE_SPAN_SLOTS, scored);
                assert_eq!(client.hosted_cpu, hosted, "key {key}");
                exact += 1;
            }
        }
        assert!(exact >= 90, "{exact} of 100 fills read only their sample");
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
        for key in 5_000..5_050u64 {
            fill_after_miss(&mut client, key);
            assert_ne!(client.hosted_cpu, (0, 0), "key {key}");
            // The key's own publish left its hint: the Get is one round trip,
            // its two READs on one doorbell, and the pick's decode and
            // scoring run while they fly — it takes no longer than a plain
            // hinted Get, and records that eviction's sample half.
            let plain = hinted_get_ns(&client, key);
            client.dm().clear_flight_recorder();
            let t0 = client.dm().now_ns();
            let (elapsed, reads, doorbells) = timed_hinted_get(&cache, &mut client, key, 200);
            assert_eq!((reads, doorbells), (2, 1), "key {key}");
            assert_eq!(elapsed, plain, "key {key}");
            assert_eq!(client.hosted_cpu, (0, 0), "key {key}");
            let spans = client.dm().flight_spans();
            let evict: Vec<_> = spans.iter().filter(|s| s.phase == Phase::Evict).collect();
            assert_eq!(evict.len(), 1, "key {key}");
            assert!(t0 <= evict[0].start_ns && evict[0].end_ns <= t0 + elapsed);
            assert_eq!(evict[0].detail, 0, "the sample half");
        }
    }

    #[test]
    fn a_sample_too_short_to_pick_from_is_re_sampled_by_its_fill() {
        // 2 KiB values in a cache sized for 300 small objects: the memory
        // holds a few dozen, and a 15-slot span often fewer than two.
        let cache = small_cache(300);
        let mut client = cache.client();
        let big = 2_048;
        for key in 0..2_000u64 {
            client.set(&key.to_le_bytes(), &vec![1u8; big]);
        }
        for key in 4_000..4_002u64 {
            assert!(client.get(&key.to_le_bytes()).is_none());
            client.set(&key.to_le_bytes(), &vec![1u8; big]);
        }
        let mut re_sampled = 0;
        for key in 5_000..5_100u64 {
            assert!(client.get(&key.to_le_bytes()).is_none());
            let before = node(&cache);
            client.set(&key.to_le_bytes(), &vec![1u8; big]);
            // The fill sends every sample READ it needs, waited for beside
            // its own verbs, and parks a pick from the last.
            let samples = node(&cache).reads - before.reads;
            re_sampled += (samples > 1) as u64;
            let parked = client.parked_eviction.as_ref().expect("a parked pick");
            assert!(parked.candidates.len() >= 2 || parked.samples >= 4);
            // The Get after it sends a plain hinted Get's READs, no sample,
            // in a plain hinted Get's time.
            let plain = hinted_get_ns(&client, key);
            let (elapsed, reads, doorbells) = timed_hinted_get(&cache, &mut client, key, big);
            assert_eq!((reads, doorbells, elapsed), (2, 1, plain), "key {key}");
        }
        assert!(re_sampled >= 50, "{re_sampled} of 100 fills re-sampled");
        assert_eq!(
            cache.pool().resident_object_bytes(0),
            client.referenced_object_bytes_on(0)
        );
    }

    #[test]
    fn under_an_extension_expert_the_fill_charges_its_pick_and_the_next_get_only_its_own_verbs() {
        let config = DittoConfig::single_algorithm(300, "gds");
        let (cache, mut client) = parking_as(config, DmConfig::default());
        // GDS scores with its objects' headers, READs of the fill's own.
        let before = node(&cache);
        fill_after_miss(&mut client, 5_000);
        assert!(node(&cache).reads - before.reads > 3);
        assert!(client.parked_eviction.is_some());
        assert_eq!(client.hosted_cpu, (0, 0));
        let plain = hinted_get_ns(&client, 5_000);
        let (elapsed, reads, doorbells) = timed_hinted_get(&cache, &mut client, 5_000, 200);
        assert_eq!((reads, doorbells), (2, 1));
        assert_eq!(elapsed, plain);
    }

    #[test]
    fn a_client_dropped_with_a_parked_eviction_burns_its_history_id() {
        let (cache, client) = parking_on(DmConfig::default());
        assert!(client.parked_eviction.is_some());
        let (burnt, messages) = (cache.stats().history_ids_burnt(), node(&cache).messages);
        drop(client);
        // Booked, and nothing sent.
        assert_eq!(cache.stats().history_ids_burnt(), burnt + 1);
        assert_eq!(node(&cache).messages, messages);
    }

    #[test]
    fn a_parked_victim_another_client_took_is_re_picked_by_the_carrying_set() {
        let (cache, mut client) = parking_on(DmConfig::default());
        let (victim_addr, victim) = parked_victim(&client);
        let others: Vec<_> = {
            let parked = client.parked_eviction.as_ref().unwrap();
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
        // The carried CAS lost, and the Set re-picked among the parked
        // candidates — one of them, no other, is gone from the table.
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
        assert_eq!(
            cache.pool().resident_object_bytes(0),
            client.referenced_object_bytes_on(0)
        );
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
            .parked_eviction
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
        let (cache, mut client) = parking_on(DmConfig::default().with_flight_recorder(1 << 16));
        client.dm().clear_flight_recorder();
        let (evictions, mut windows) = (cache.stats().snapshot().evictions, BTreeMap::new());
        for key in 5_000..5_200u64 {
            let key = key.to_le_bytes();
            let t0 = client.dm().now_ns();
            assert!(client.get(&key).is_none());
            windows.insert(client.dm().op_id(), (t0, client.dm().now_ns(), true));
            let t0 = client.dm().now_ns();
            client.set(&key, &[1u8; 200]);
            windows.insert(client.dm().op_id(), (t0, client.dm().now_ns(), false));
        }
        let spans = client.dm().flight_spans();
        // Evict spans by half (sample, victim) and by the op that recorded
        // them (a Get, a Set).
        let mut halves = [[0u64; 2]; 2];
        for span in spans.iter() {
            let (t0, t1, get) = windows[&span.op_id];
            assert!(
                span.end_ns - span.start_ns <= t1 - t0,
                "{span:?} outlasts its op"
            );
            if span.phase == Phase::Evict {
                assert!(t0 <= span.start_ns && span.end_ns <= t1, "{span:?}");
                halves[span.detail as usize][!get as usize] += 1;
            }
        }
        // Each Get recorded the sample half of the eviction the fill before
        // it parked — the pick's CPU work, under the Get's flight — and each
        // fill the victim half of the one it carried.
        assert_eq!(halves, [[200, 0], [0, 200]]);
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
        let ev = client.evict_begin(0);
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
        let mut ev = client.evict_begin(0);
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
        let mut ev = client.evict_begin(0);
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
}
