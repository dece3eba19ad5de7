//! Sampling eviction: the one routine behind [`DittoClient::evict_once`], the
//! inline evictions of a starved allocation, and the eviction a `Set` under
//! memory pressure runs *ahead*, beside its own lookup and publish (see the
//! crate docs, *The `Set` path under memory pressure*).

use super::lookup::bucket_holds;
use super::{Candidates, DittoClient};
use crate::hashtable::SampleFriendlyHashTable;
use crate::history::EvictionHistory;
use crate::inline::InlineVec;
use crate::slot::{AtomicField, Slot, SLOT_SIZE};
use ditto_dm::wqe::MAX_WQES;
use ditto_dm::{Completion, Phase, RemoteAddr, WorkQueue};
use rand::Rng;
use std::ops::Range;

/// Where an [`Eviction`] stands between its round trips.
#[derive(Clone, Copy, Default)]
enum EvictWait {
    /// A sample READ is out (or waits to ride the `Set`'s lookup doorbell).
    #[default]
    Sample,
    /// The victim is picked and its history-id FAA is out; its CAS is next.
    Victim,
    /// Finished: whether an object was evicted and its memory recycled.
    Done(bool),
}

/// One sampling eviction, resumable at its round trips: the state
/// [`DittoClient::evict_advance`] — the one eviction routine — works on.
/// Run without pausing it is the inline eviction, every verb waited for in
/// turn.  An eviction running *ahead* of a `Set` (see the crate docs) is
/// paused after each verb it issues — a posted WQE — so the sample READ
/// shares the lookup's doorbell and the next verb flies during the publish
/// CAS.
#[derive(Default)]
pub(super) struct Eviction {
    /// Start of the `Evict` span: when the first sample was issued.
    t0: u64,
    /// Directory version the sampled slot addresses translate under.
    token: u64,
    min_blocks: u8,
    /// The evicting `Set`'s own buckets, of an eviction running ahead of
    /// one.  Their slots are never candidates, so the publish CAS and the
    /// victim CAS cannot target the same word.
    own_buckets: Option<[RemoteAddr; 2]>,
    candidates: Candidates,
    samples: usize,
    retries: usize,
    wait: EvictWait,
    /// Physical READ segments of the current sample, in canonical order.
    segments: InlineVec<(RemoteAddr, usize), MAX_WQES>,
    /// Whether the current sample's READs were issued yet.
    issued: bool,
    /// Work-request ids of the posted verb(s) waited for, how many of their
    /// completions are still out, and whether the awaited verb faulted.
    wrs: Range<u64>,
    in_flight: usize,
    failed: bool,
    /// The picked victim: candidate index, expert bitmap, chosen expert.
    pick: (usize, u64, usize),
    /// Old counter value fetched by the history-id FAA.
    fetched: u64,
}

impl Eviction {
    /// Called by the `Set`'s lookup while it fills its doorbell: a sample
    /// still waiting to ride along is posted behind the bucket READs.
    pub(super) fn ride<'buf>(&mut self, wq: &mut WorkQueue<'_, 'buf>, buf: &'buf mut [u8]) {
        if !self.issued {
            self.post_sample(wq, buf);
        }
    }

    /// Called by the lookup once it drained a round's stragglers off the
    /// shared completion queue: whatever this eviction still had in flight
    /// has completed, and — the drain cannot tell whose verb an error was —
    /// `failed` taints it.
    pub(super) fn settle(&mut self, failed: bool) {
        if self.in_flight > 0 {
            self.in_flight = 0;
            self.failed |= failed;
        }
    }

    /// Posts the current sample's READs on `wq`, into the front of `buf`.
    fn post_sample<'buf>(&mut self, wq: &mut WorkQueue<'_, 'buf>, buf: &'buf mut [u8]) {
        let mut rest = buf;
        let mut first = None;
        for &(addr, slots) in self.segments.iter() {
            let (chunk, tail) = rest.split_at_mut(slots * SLOT_SIZE);
            first.get_or_insert(wq.post_read(addr, chunk, true));
            rest = tail;
        }
        let first = first.unwrap_or(0);
        self.wrs = first..first + self.segments.len() as u64;
        self.in_flight = self.segments.len();
        self.issued = true;
    }

    /// Books `completion` if it belongs to the verb(s) waited for.
    pub(super) fn claims(&mut self, completion: &Completion) -> bool {
        let ours = self.in_flight > 0 && self.wrs.contains(&completion.wr_id);
        if ours {
            self.in_flight -= 1;
            self.failed |= !completion.status.is_ok();
        }
        ours
    }

    fn is_own(&self, slot_addr: RemoteAddr) -> bool {
        self.own_buckets
            .iter()
            .flatten()
            .any(|&bucket| bucket_holds(bucket, slot_addr))
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
        let mut ev = self.evict_begin(min_blocks, None);
        self.evict_advance(&mut ev, false)
            .expect("an eviction that never pauses runs to completion")
    }

    /// Starts a sampling eviction by issuing its first sample.  With
    /// `own_buckets` it runs *ahead* of the `Set` on those buckets (see
    /// [`Eviction`]): the sample waits to ride the `Set`'s lookup doorbell.
    pub(super) fn evict_begin(
        &mut self,
        min_blocks: u8,
        own_buckets: Option<[RemoteAddr; 2]>,
    ) -> Eviction {
        let mut ev = Eviction {
            t0: self.dm.now_ns(),
            token: self.mig_token,
            min_blocks,
            own_buckets,
            retries: 3,
            ..Eviction::default()
        };
        self.issue_sample(&mut ev, false, own_buckets.is_some());
        ev
    }

    /// Advances `ev`: collect the sample, re-sample while it holds too few
    /// candidates, pick a victim and acquire its history id, CAS it out,
    /// fall back to the next-best candidate on a lost race.  With `pause`
    /// it returns `None` right after posting a verb, for the caller to
    /// overlap with foreground work and resume later; without, it waits in
    /// place and runs to `Some(won)`.
    pub(super) fn evict_advance(&mut self, ev: &mut Eviction, pause: bool) -> Option<bool> {
        loop {
            let done = match ev.wait {
                EvictWait::Done(won) => return Some(won),
                EvictWait::Sample => {
                    self.collect_sample(ev);
                    let found = ev.candidates.len();
                    if found < 2 && (found == 0 || ev.samples < 4) && ev.samples < 8 {
                        self.issue_sample(ev, pause, false);
                        None
                    } else if found == 0 {
                        Some(false)
                    } else {
                        let min_blocks = ev.min_blocks;
                        let fits = |c: &(_, Slot)| c.1.atomic.size_class >= min_blocks;
                        let fitting = ev.candidates.iter().copied().filter(fits).count();
                        if fitting > 0 && fitting < found {
                            let all = std::mem::take(&mut ev.candidates);
                            ev.candidates.extend(all.iter().copied().filter(fits));
                        }
                        self.issue_victim(ev, pause);
                        None
                    }
                }
                EvictWait::Victim => {
                    if self.commit_victim(ev) {
                        Some(true)
                    } else {
                        // Pressured clients herd onto the same globally-best
                        // victim and only one CAS wins.  The sample is paid
                        // for, so a loser re-selects among the rest (bounded):
                        // a retry on a *different* victim is progress.
                        ev.candidates.swap_remove(ev.pick.0);
                        ev.retries -= 1;
                        if ev.retries == 0 || ev.candidates.is_empty() {
                            Some(false)
                        } else {
                            self.issue_victim(ev, pause);
                            None
                        }
                    }
                }
            };
            if let Some(won) = done {
                ev.wait = EvictWait::Done(won);
                self.dm
                    .record_span(Phase::Evict, ev.t0, self.dm.now_ns(), won as u32);
            } else if pause {
                return None;
            }
        }
    }

    /// Draws the eviction's next sample and issues its READ(s): a single
    /// `RDMA_READ` of K consecutive slots of the sample-friendly table — one
    /// per memory node touched when the span crosses a stripe boundary — or
    /// K independent slot READs in the scattered-metadata ablation.  The
    /// sampled *global* slot indices are independent of the striping, so
    /// striped and single-node caches examine identical candidates.
    ///
    /// `ride` leaves the READs to the `Set`'s lookup, which posts them behind
    /// its own doorbell; `post` rings one for them and returns with the
    /// READs in flight, as do several segments whatever `post` says — they
    /// share a doorbell and [`Self::collect_sample`] polls them.  Otherwise
    /// the one segment is read in place, a completed round trip.
    fn issue_sample(&mut self, ev: &mut Eviction, post: bool, ride: bool) {
        ev.segments.clear();
        if self.config.enable_sample_friendly_table {
            let (start, count) = self
                .table
                .sample_span(&mut self.rng, self.config.sample_size);
            self.table
                .for_span_segments(start, count, |addr, slots| ev.segments.push((addr, slots)));
        } else {
            for _ in 0..self.config.sample_size {
                let idx = self.rng.gen_range(0..self.table.num_slots());
                ev.segments.push((self.table.global_slot_addr(idx), 1));
            }
        }
        ev.samples += 1;
        ev.wait = EvictWait::Sample;
        (ev.issued, ev.failed) = (!ride, false);
        if ride {
            return;
        }
        let buf = &mut self.sample_buf[..];
        match ev.segments[..] {
            [(addr, slots)] if !post => {
                ev.failed = self
                    .dm
                    .try_read_into(addr, &mut buf[..slots * SLOT_SIZE])
                    .is_err();
            }
            _ => {
                let mut wq = self.dm.work_queue();
                ev.post_sample(&mut wq, buf);
                wq.ring();
            }
        }
    }

    /// Polls until the verb(s) `ev` posted have all completed.
    fn await_posted(&self, ev: &mut Eviction) {
        while ev.in_flight > 0 {
            let Some(completion) = self.dm.poll_cq() else {
                // Somebody else drained the queue: outcome unknown.
                (ev.in_flight, ev.failed) = (0, true);
                break;
            };
            ev.claims(&completion);
        }
    }

    /// Waits for the eviction's current sample and appends its live objects
    /// to the candidates, charging the decode and candidate-scoring CPU
    /// work.  A faulted sample yields no candidates (the routine
    /// re-samples).  Slots decode in canonical segment order whatever order
    /// the READs completed in — ties in eviction priorities break by
    /// position — so a striped pool sees the candidates a single node does.
    fn collect_sample(&mut self, ev: &mut Eviction) {
        debug_assert!(ev.issued, "the first lookup round posts a riding sample");
        self.await_posted(ev);
        if ev.failed {
            return;
        }
        self.charge_decode(ev.segments.iter().map(|&(_, slots)| slots).sum());
        let (mut offset, mut gathered) = (0, 0);
        for &(addr, slots) in ev.segments.iter() {
            let bytes = &self.sample_buf[offset..offset + slots * SLOT_SIZE];
            for (i, chunk) in bytes.chunks_exact(SLOT_SIZE).enumerate() {
                let slot_addr = addr.add((i * SLOT_SIZE) as u64);
                let slot = Slot::from_bytes(chunk);
                if slot.atomic.is_object()
                    && !ev.is_own(slot_addr)
                    && ev.candidates.push_saturating((slot_addr, slot))
                {
                    gathered += 1;
                }
            }
            offset += slots * SLOT_SIZE;
        }
        self.charge_score(gathered);
    }

    /// Picks the victim among `ev`'s candidates and — with the lightweight
    /// history — issues the `RDMA_FAA` that acquires its history id,
    /// returning with it in flight when `post`.
    fn issue_victim(&mut self, ev: &mut Eviction, post: bool) {
        ev.pick = self.select_victim(&ev.candidates);
        ev.wait = EvictWait::Victim;
        ev.failed = false;
        if !(self.config.adaptive && self.config.enable_lightweight_history) {
            return;
        }
        // Home the entry on the victim's hash shard: entries spread over
        // every shard (and every node's counter) uniformly, so the sharded
        // FIFOs jointly keep the configured history length.
        let shard = self.history.shard_for_hash(ev.candidates[ev.pick.0].1.hash);
        let counter = self.history.counter_addr(shard);
        if post {
            let wr = {
                let mut wq = self.dm.work_queue();
                let wr = wq.post_faa_fetch(counter, 1, &mut ev.fetched, true);
                wq.ring();
                wr
            };
            (ev.wrs, ev.in_flight) = (wr..wr + 1, 1);
        } else {
            match self.dm.try_faa(counter, 1) {
                Ok(old) => ev.fetched = old,
                Err(_) => ev.failed = true,
            }
        }
    }

    /// CASes the picked victim out of the table — into an embedded history
    /// entry once its id arrived — and recycles its memory.  Returns
    /// `false` when the CAS lost a race.
    fn commit_victim(&mut self, ev: &mut Eviction) -> bool {
        self.await_posted(ev);
        let (victim_idx, bitmap, chosen) = ev.pick;
        let (victim_addr, victim) = ev.candidates[victim_idx];
        let expected = victim.atomic.encode();
        // The victim's address was translated when the eviction began, not
        // under the token of whatever `Set` attempt is current by now.
        let set_token = std::mem::replace(&mut self.mig_token, ev.token);
        // A faulted counter FAA evicts without a history entry (one lost
        // ghost hit beats a wedged eviction path), like the non-adaptive
        // cache and the separate-history ablation: the slot is just cleared.
        let embed = self.config.adaptive && self.config.enable_lightweight_history && !ev.failed;
        let new_word = if embed {
            let shard = self.history.shard_for_hash(victim.hash);
            let (hist_id, new_counter) = EvictionHistory::id_from_counter(shard, ev.fetched);
            self.counter_estimates[shard as usize] = new_counter;
            self.counters_known[shard as usize] = true;
            AtomicField::for_history(victim.atomic.fp, hist_id).encode()
        } else {
            0
        };
        let won = self.slot_cas(victim_addr, expected, new_word);
        if won && embed {
            self.write_slot_meta(
                SampleFriendlyHashTable::insert_ts_addr(victim_addr),
                &bitmap.to_le_bytes(),
            );
            self.stats.record_history_insert();
        } else if won && self.config.adaptive && !self.config.enable_lightweight_history {
            // Ablation: a separate remote history FIFO and index (FAA on the
            // tail, WRITE of the entry, CAS into the index), modelled as
            // traffic against scratch space: faults cost only the messages.
            let _ = self.dm.try_faa(self.scratch.add(16), 1);
            let _ = self.dm.try_write_async(self.scratch.add(24), &[0u8; 16]);
            let _ = self.dm.try_cas(self.scratch.add(40), 0, 0);
            self.stats.record_history_insert();
        }
        self.mig_token = set_token;
        if won {
            // The victim's slot word changed (history entry or empty):
            // invalidate local-tier copies of the evicted key.
            self.bump_board(victim.hash);
            self.hints.forget(victim.hash);
            self.notify_eviction(&ev.candidates, victim_idx, bitmap);
            self.free_object(
                victim.atomic.object_addr(),
                victim.atomic.object_bytes() as usize,
            );
            self.stats.record_eviction(chosen);
            self.stats.record_eviction_path(ev.own_buckets.is_some());
        }
        won
    }
}

#[cfg(test)]
mod tests {
    use super::DittoClient;
    use crate::cache::DittoCache;
    use crate::config::DittoConfig;
    use ditto_dm::DmConfig;

    fn small_cache(capacity: u64) -> DittoCache {
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), DmConfig::default())
            .unwrap()
    }

    /// A cache and its client, deep in steady memory pressure.
    fn pressured() -> (DittoCache, DittoClient) {
        let cache = small_cache(300);
        let mut client = cache.client();
        for i in 0..2_000u64 {
            client.set(&i.to_le_bytes(), &[1u8; 200]);
        }
        (cache, client)
    }

    fn timed_set(client: &mut DittoClient, key: u64) -> u64 {
        let t0 = client.dm().now_ns();
        client.set(&key.to_le_bytes(), &[1u8; 200]);
        client.dm().now_ns() - t0
    }

    /// Latency of a Set that neither evicts nor fetches a segment.
    fn plain_set_ns() -> u64 {
        let mut client = small_cache(1_000).client();
        timed_set(&mut client, 0);
        timed_set(&mut client, 1)
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
        // Two round trips hidden per Set; one whose first sample sufficed pays
        // a plain Set plus the serial victim CAS plus CPU and posting charges.
        let cas = DmConfig::default().cas_latency_ns;
        assert!(*latencies.iter().min().unwrap() <= plain_set_ns() + cas + 800);
    }

    #[test]
    fn set_without_a_spare_falls_back_to_the_inline_eviction() {
        let (cache, mut client) = pressured();
        let (cfg, paths) = (DmConfig::default(), cache.stats());
        client.release_parked_memory(); // the spare goes back to the node
        let inline = paths.evictions_inline();
        let cold = timed_set(&mut client, 5_000);
        assert_eq!(paths.evictions_inline(), inline + 1);
        // Sample READ, history FAA and victim CAS precede the lookup again.
        let serial = cfg.read_latency_ns + cfg.faa_latency_ns + cfg.cas_latency_ns;
        assert!(cold >= plain_set_ns() + serial, "{cold}");
        // The cold Set left a spare behind: the next one overlaps again.
        let overlapped = paths.evictions_overlapped();
        timed_set(&mut client, 5_001);
        assert_eq!(paths.evictions_inline(), inline + 1);
        assert_eq!(paths.evictions_overlapped(), overlapped + 1);
    }
}
