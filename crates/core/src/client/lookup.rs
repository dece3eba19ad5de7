//! The lookup shared by `Get` and `Set` — both bucket READs behind one
//! doorbell, scanned for the key's live slot — and the client-side **hint
//! table** that lets a `Get` post its object READ *speculatively* behind
//! them, making a remote hit one round trip instead of two (see the crate
//! docs, *The one-round-trip `Get`*).

use super::evict::Eviction;
use super::{verb_fault_retryable, DittoClient, SearchSlots, CAS_RETRY_BACKOFF_NS, MAX_RETRIES};
use crate::hashtable::SampleFriendlyHashTable;
use crate::slot::{AtomicField, Slot, BUCKET_SIZE, SLOTS_PER_BUCKET};
use ditto_dm::{Completion, DmClient, DmError, DmResult, Phase, RemoteAddr};

/// Entries of a client's hint table: a power of two, 16 bytes each — 2 MiB
/// per client, a fifth of the FC cache's default budget.
const HINT_ENTRIES: usize = 1 << 17;
const HINT_INDEX_BITS: u32 = HINT_ENTRIES.trailing_zeros();

/// What a client last knew of a key's slot: the slot's atomic word (which
/// names the object's node, address and size) and which of the key's two
/// buckets holds the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Hint {
    word: u64,
    secondary: bool,
}

/// One hint-table entry.  `word == 0` (an empty slot's word, never hinted)
/// marks it vacant.  The low hash bits pick the entry and the next 32 tag
/// it, so 49 hash bits tell keys apart; a hint is only ever a guess checked
/// against the freshly read slot word, so an alias costs a wasted READ,
/// never a wrong value.
#[derive(Clone, Copy, Default)]
struct HintEntry {
    word: u64,
    tag: u32,
    /// Bit 31: the slot sits in the secondary bucket.  Bits 0..31: the low
    /// bits of the [`crate::local_tier::CoherenceBoard`] epoch of the key's
    /// hash when the word was known current, less the client's own bumps
    /// ([`DittoClient::hint_epoch`]).
    stamp: u32,
}

/// Direct-mapped `key hash → last slot word seen`, fixed-size and
/// allocation-free after construction.
pub(super) struct HintTable {
    entries: Box<[HintEntry]>,
}

impl HintTable {
    pub(super) fn new() -> Self {
        HintTable {
            entries: vec![HintEntry::default(); HINT_ENTRIES].into_boxed_slice(),
        }
    }

    fn index(hash: u64) -> usize {
        hash as usize & (HINT_ENTRIES - 1)
    }

    fn tag(hash: u64) -> u32 {
        (hash >> HINT_INDEX_BITS) as u32
    }

    fn stamp(secondary: bool, epoch: u64) -> u32 {
        (epoch as u32 & !(1 << 31)) | (secondary as u32) << 31
    }

    /// The hint for `hash`, unless the board has seen another client mutate
    /// the key's slot (`epoch` moved) since the hint was taken — which
    /// filters hints staled in-process before any verb is posted.
    pub(super) fn get(&self, hash: u64, epoch: u64) -> Option<Hint> {
        let entry = self.entries[Self::index(hash)];
        let secondary = entry.stamp >> 31 == 1;
        (entry.word != 0
            && entry.tag == Self::tag(hash)
            && entry.stamp == Self::stamp(secondary, epoch))
        .then_some(Hint {
            word: entry.word,
            secondary,
        })
    }

    /// Records `hint` as current at `epoch`, displacing whichever key held
    /// the entry.
    pub(super) fn put(&mut self, hash: u64, hint: Hint, epoch: u64) {
        self.entries[Self::index(hash)] = HintEntry {
            word: hint.word,
            tag: Self::tag(hash),
            stamp: Self::stamp(hint.secondary, epoch),
        };
    }

    /// Drops `hash`'s hint (another key's entry in the same place stays).
    pub(super) fn forget(&mut self, hash: u64) {
        let entry = &mut self.entries[Self::index(hash)];
        if entry.tag == Self::tag(hash) {
            entry.word = 0;
        }
    }
}

/// The speculative object READ of one lookup.
struct SpecRead {
    /// The caller's hint until the first round decides on it.
    hint: Option<Hint>,
    issued: bool,
    /// The READ posted in the *current* round: its work-request id and the
    /// hinted word.  Bytes fetched by an earlier round are never validated:
    /// they were read before the bucket READ that would vouch for them.
    posted: Option<(u64, u64)>,
    /// Its completion: `None` while outstanding, else whether it succeeded.
    landed: Option<bool>,
    validated: bool,
}

impl SpecRead {
    fn claims(&mut self, completion: &Completion) -> bool {
        let ours =
            self.landed.is_none() && self.posted.is_some_and(|(wr, _)| wr == completion.wr_id);
        if ours {
            self.landed = Some(completion.status.is_ok());
        }
        ours
    }

    fn outstanding(&self) -> bool {
        self.posted.is_some() && self.landed.is_none()
    }

    /// The whole correctness argument: the object bytes are good iff the
    /// slot word a bucket READ of this round returned *is* the hinted word,
    /// that bucket READ ran on the object's own node — so the speculative
    /// READ queued behind it (see the ordering rule at the posting site) —
    /// and the READ itself succeeded: a faulted one is a misprediction.
    fn validate(&mut self, (slot_addr, slot): &(RemoteAddr, Slot)) {
        self.validated = self.landed == Some(true)
            && self
                .posted
                .is_some_and(|(_, word)| word == slot.atomic.encode())
            && slot_addr.mn_id == slot.atomic.object_addr().mn_id;
    }
}

/// The verbs that may share a pipelined lookup round's doorbell and
/// completion queue with the two bucket READs: an eviction's sample READ
/// (`Set`) and a speculative object READ (`Get`).
struct Riders<'e, 's> {
    evict: Option<&'e mut Eviction>,
    spec: &'s mut SpecRead,
}

impl Riders<'_, '_> {
    /// Next completion of the round's own verbs; the riders' are booked on
    /// their owners.
    fn poll(&mut self, dm: &DmClient) -> Completion {
        loop {
            let completion = dm.poll_cq().expect("bucket completion");
            let ridden = self.spec.claims(&completion)
                || self
                    .evict
                    .as_deref_mut()
                    .is_some_and(|ev| ev.claims(&completion));
            if !ridden {
                return completion;
            }
        }
    }

    /// Drains the round's stragglers and returns the first error among
    /// them.  The drain cannot tell whose verb an error was, so it taints a
    /// riding eviction too — except the speculative READ's, which is known
    /// by its id and only ever costs the speculation.
    fn drain(&mut self, dm: &DmClient) -> DmResult<usize> {
        let (mut drained, mut first_err) = (0, None);
        while let Some(completion) = dm.poll_cq() {
            drained += 1;
            if !self.spec.claims(&completion) && first_err.is_none() {
                first_err = completion.status.check().err();
            }
        }
        if let Some(ev) = self.evict.as_deref_mut() {
            ev.settle(first_err.is_some());
        }
        first_err.map_or(Ok(drained), Err)
    }
}

/// What a lookup found.
pub(super) struct Lookup {
    /// Every slot decoded, primary bucket first.
    pub(super) slots: SearchSlots,
    /// The key's live slot, if any.
    pub(super) found: Option<(RemoteAddr, Slot)>,
    /// The speculative object READ validated: the found slot's object is
    /// already in `obj_buf`.
    pub(super) object_landed: bool,
}

impl Lookup {
    fn new(slots: SearchSlots, found: Option<(RemoteAddr, Slot)>) -> Self {
        Lookup {
            slots,
            found,
            object_landed: false,
        }
    }
}

impl DittoClient {
    /// Bumps `hash`'s coherence-board epoch — after this client won a slot
    /// CAS on the key — keeping its own-bump ledger in step.
    pub(super) fn bump_board(&mut self, hash: u64) {
        self.board.bump(hash);
        self.own_bumps[self.board.slot(hash)] += 1;
    }

    /// The epoch hints of `hash` are stamped with and filtered by: of the
    /// `board_epoch` read off the board, the bumps *other* clients made.
    pub(super) fn hint_epoch(&self, hash: u64, board_epoch: u64) -> u64 {
        board_epoch.wrapping_sub(self.own_bumps[self.board.slot(hash)])
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
        let primary = self.table.bucket_addr(self.table.primary_bucket(hash));
        let in_primary = primary.mn_id == slot_addr.mn_id
            && (primary.offset..primary.offset + BUCKET_SIZE as u64).contains(&slot_addr.offset);
        let hint = Hint {
            word,
            secondary: !in_primary,
        };
        self.hints.put(hash, hint, hint_epoch);
    }

    /// [`Self::hint_note`] for the `word` this client just CASed into the
    /// slot at `slot_addr`.
    pub(super) fn hint_cas_won(&mut self, hash: u64, slot_addr: RemoteAddr, word: u64) {
        let hint_epoch = self.hint_epoch(hash, self.board.epoch(hash));
        self.hint_note(hash, slot_addr, word, hint_epoch);
    }

    /// Reads the primary and secondary buckets — plus an optional piggybacked
    /// object WRITE from the `Set` path — in one doorbell batch, and scans
    /// the decoded slots (primary bucket first) for a live entry.
    ///
    /// Both buckets are always fetched (the RACE-style lookup the paper
    /// describes): with doorbell batching the second READ rides along almost
    /// for free, and misses plus secondary hits need it anyway.  This trades
    /// one extra RNIC message per primary-bucket hit against the round trip
    /// the seed's short-circuit (primary first, secondary only on miss) paid
    /// on every other lookup; see the ROADMAP note on a message-bound hybrid.
    ///
    /// With `enable_doorbell_batching = false` the *identical* verb sequence
    /// is issued one round trip at a time — the ablation isolates batching
    /// itself, with the verb pattern held constant.  With
    /// `enable_async_completion` (the default) the same verbs are *posted*
    /// instead: the object WRITE rides unsignalled, the primary bucket is
    /// decoded the moment its completion arrives — while the secondary READ
    /// is still in flight — and a primary-bucket hit skips the secondary
    /// decode entirely (its completion is still drained; the READ already
    /// consumed its message either way).
    ///
    /// Three optional riders share the pipelined round's doorbell: the
    /// `Set`'s object `write`, the sample READ of an eviction running ahead
    /// of it (`evict`), and — for a `Get` holding a `hint` — the object READ
    /// itself, posted speculatively *behind* the bucket READs.  When the
    /// found slot's word equals the hinted one the object is already in
    /// `obj_buf` ([`Lookup::object_landed`]) and the `Get` skips its second
    /// round trip; any other outcome discards the bytes, counts a wasted
    /// READ, drops the hint and leaves the lookup exactly as without one.
    ///
    /// When the adaptive hybrid has judged the run *message-bound*
    /// (`enable_adaptive_lookup`), a `Get` lookup instead short-circuits:
    /// primary bucket first, secondary only when the key is not there —
    /// one RNIC message saved per primary-bucket hit, at the cost of a
    /// second round trip on the other lookups.
    ///
    /// Either way the lookup follows the migration redirect rules: bucket
    /// addresses translate through the live stripe directory, and the
    /// directory entries are re-checked after the fetch — a stripe cutover
    /// that raced the read triggers a retry against the new addresses.
    pub(super) fn search(
        &mut self,
        hash: u64,
        fp: u8,
        write: Option<(RemoteAddr, &[u8])>,
        evict: Option<&mut Eviction>,
        hint: Option<Hint>,
    ) -> DmResult<Lookup> {
        let mut spec = SpecRead {
            hint,
            issued: false,
            posted: None,
            landed: None,
            validated: false,
        };
        let riders = Riders {
            evict,
            spec: &mut spec,
        };
        let mut result = self.search_rounds(hash, fp, write, riders);
        if spec.issued {
            self.stats.record_spec_read(!spec.validated);
            if !spec.validated {
                self.hints.forget(hash);
            }
        }
        if let Ok(lookup) = &mut result {
            lookup.object_landed = spec.validated;
        }
        result
    }

    fn search_rounds(
        &mut self,
        hash: u64,
        fp: u8,
        write: Option<(RemoteAddr, &[u8])>,
        mut riders: Riders<'_, '_>,
    ) -> DmResult<Lookup> {
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
        let mut write = write;
        // Token mismatches consume retry budget; reads that saw a stripe
        // reconcile's poison do not — that window is bounded by the
        // in-flight commit, and escaping with a poisoned ("all empty")
        // view would let the caller conclude a key is absent while its
        // entry is being carried to the stripe's new home.  Verb faults
        // burn a budget of their own so a fault storm cannot starve the
        // token-staleness retries (or vice versa).
        let mut attempt = 0;
        let mut fault_attempts = 0;
        // Whether the faulted round may be redone (books the back-off).
        let mut retryable = |dm: &DmClient, e: &DmError| {
            fault_attempts += 1;
            fault_attempts < MAX_RETRIES && verb_fault_retryable(dm, e)
        };
        loop {
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
            let short_circuit = self.lookup_short_circuit && write.is_none();
            // The one speculation decision: a hinted lookup's first round,
            // on the pipelined path only.  The serial ablations and the
            // message-bound short-circuit (which exists to *save* READs)
            // never speculate.
            let speculate = riders
                .spec
                .hint
                .take()
                .filter(|_| self.use_async() && !short_circuit);
            (riders.spec.posted, riders.spec.landed) = (None, None);
            let mut slots = SearchSlots::new();
            if short_circuit {
                // (Field-disjoint clock charges: `bucket_buf` stays borrowed
                // across the reads, so `charge_decode` cannot be called.)
                let decode_ns = SLOTS_PER_BUCKET as u64 * self.config.cpu_decode_slot_ns;
                let (primary_buf, secondary_buf) = self.bucket_buf.split_at_mut(BUCKET_SIZE);
                if let Err(e) = self.dm.try_read_into(primary_addr, primary_buf) {
                    if retryable(&self.dm, &e) {
                        continue;
                    }
                    return Err(e);
                }
                if SampleFriendlyHashTable::bucket_tainted(primary_buf) {
                    self.dm.advance_ns(CAS_RETRY_BACKOFF_NS);
                    continue;
                }
                SampleFriendlyHashTable::decode_slots(primary_addr, primary_buf, &mut slots);
                self.dm.advance_ns(decode_ns);
                let t1 = self.dm.now_ns();
                self.dm
                    .record_span(Phase::Decode, t1 - decode_ns, t1, SLOTS_PER_BUCKET as u32);
                if let Some(found) = Self::find_live(&slots, hash, fp) {
                    if self.table.bucket_entry_token(primary) == ptok || last {
                        return Ok(Lookup::new(slots, Some(found)));
                    }
                    attempt += 1;
                    continue;
                }
                if let Err(e) = self.dm.try_read_into(secondary_addr, secondary_buf) {
                    if retryable(&self.dm, &e) {
                        continue;
                    }
                    return Err(e);
                }
                if SampleFriendlyHashTable::bucket_tainted(secondary_buf) {
                    self.dm.advance_ns(CAS_RETRY_BACKOFF_NS);
                    continue;
                }
                SampleFriendlyHashTable::decode_slots(secondary_addr, secondary_buf, &mut slots);
                self.dm.advance_ns(decode_ns);
                let t1 = self.dm.now_ns();
                self.dm
                    .record_span(Phase::Decode, t1 - decode_ns, t1, SLOTS_PER_BUCKET as u32);
            } else if self.use_async() {
                // The ordering rule of the speculation: its READ is posted
                // after the bucket READ that will vouch for it and only when
                // the object lives on that bucket's node — same queue pair,
                // in-order — so a validated speculation is exactly the two
                // dependent READs in their usual order, minus the wait
                // between them.
                let speculate = speculate.and_then(|hint| {
                    let object = AtomicField::decode(hint.word);
                    let bucket = if hint.secondary {
                        secondary_addr
                    } else {
                        primary_addr
                    };
                    (object.object_addr().mn_id == bucket.mn_id).then_some((hint.word, object))
                });
                if let Some((_, object)) = speculate {
                    let len = object.object_bytes() as usize;
                    if self.obj_buf.len() < len {
                        self.obj_buf.resize(len, 0);
                    }
                }
                // Pipelined lookup: post the object WRITE (if any)
                // *unsignalled* — `Set` never waits for it — and both bucket
                // READs signalled, behind one doorbell per distinct node.
                let (wr_primary, wr_secondary);
                let write_rides = write.is_some();
                {
                    let (primary_buf, secondary_buf) = self.bucket_buf.split_at_mut(BUCKET_SIZE);
                    let mut wq = self.dm.work_queue();
                    if let Some((addr, data)) = write {
                        wq.post_write(addr, data, false);
                    }
                    wr_primary = wq.post_read(primary_addr, primary_buf, true);
                    wr_secondary = wq.post_read(secondary_addr, secondary_buf, true);
                    // An eviction running ahead of this `Set` has its first
                    // sample READ share the lookup's doorbell.
                    if let Some(ev) = riders.evict.as_deref_mut() {
                        ev.ride(&mut wq, &mut self.sample_buf);
                    }
                    if let Some((word, object)) = speculate {
                        let buf = &mut self.obj_buf[..object.object_bytes() as usize];
                        let wr = wq.post_read(object.object_addr(), buf, true);
                        riders.spec.posted = Some((wr, word));
                        riders.spec.issued = true;
                    }
                    wq.ring();
                }
                // Wait for the *primary* bucket specifically: a slow
                // unsignalled WRITE queued ahead of it can push its
                // completion past the secondary's on a multi-node pool, so
                // the wr_id is matched rather than assuming arrival order.
                // Then decode while the secondary READ is (possibly) still
                // in flight — the CPU work hides behind the wire.  Error
                // completions (the rider WRITE's included — unsignalled
                // WQEs fault loudly) abort the round.
                let mut secondary_done = false;
                let mut round_err = None;
                loop {
                    let completion = riders.poll(&self.dm);
                    if let Err(e) = completion.status.check() {
                        round_err = Some(e);
                        break;
                    }
                    if completion.wr_id == wr_primary {
                        break;
                    }
                    debug_assert_eq!(completion.wr_id, wr_secondary);
                    secondary_done = true;
                }
                if let Some(e) = round_err {
                    // Consume this round's stragglers so the next round's
                    // polling starts from an empty queue.
                    let _ = riders.drain(&self.dm);
                    if retryable(&self.dm, &e) {
                        continue;
                    }
                    return Err(e);
                }
                if SampleFriendlyHashTable::bucket_tainted(&self.bucket_buf[..BUCKET_SIZE]) {
                    if riders.drain(&self.dm).is_ok() {
                        // The round's verbs all landed (an unsignalled
                        // WRITE that fails leaves an error completion), so
                        // poison retries re-read the buckets alone.
                        write = None;
                    }
                    self.dm.advance_ns(CAS_RETRY_BACKOFF_NS);
                    continue;
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
                    // the past, hidden behind the primary decode) — and so
                    // is a speculative object READ's.
                    match riders.drain(&self.dm) {
                        Ok(_) => write = None,
                        Err(e) => {
                            if retryable(&self.dm, &e) {
                                continue;
                            }
                            return Err(e);
                        }
                    }
                    if self.table.bucket_entry_token(primary) == ptok || last {
                        riders.spec.validate(&found);
                        return Ok(Lookup::new(slots, Some(found)));
                    }
                    attempt += 1;
                    continue;
                }
                if !secondary_done {
                    let completion = riders.poll(&self.dm);
                    if let Err(e) = completion.status.check() {
                        let _ = riders.drain(&self.dm);
                        if retryable(&self.dm, &e) {
                            continue;
                        }
                        return Err(e);
                    }
                }
                if write_rides || riders.spec.outstanding() {
                    // A rider-WRITE error on a *different* node can land
                    // after both bucket completions; surface it now.
                    // Fault-free the queue is empty and this costs nothing.
                    // A speculative READ (queued behind the secondary's) is
                    // settled here too: it never outlives its round.
                    match riders.drain(&self.dm) {
                        Ok(_) => write = None,
                        Err(e) => {
                            if retryable(&self.dm, &e) {
                                continue;
                            }
                            return Err(e);
                        }
                    }
                }
                if SampleFriendlyHashTable::bucket_tainted(&self.bucket_buf[BUCKET_SIZE..]) {
                    self.dm.advance_ns(CAS_RETRY_BACKOFF_NS);
                    continue;
                }
                SampleFriendlyHashTable::decode_slots(
                    secondary_addr,
                    &self.bucket_buf[BUCKET_SIZE..],
                    &mut slots,
                );
                self.charge_decode(SLOTS_PER_BUCKET);
            } else {
                let (primary_buf, secondary_buf) = self.bucket_buf.split_at_mut(BUCKET_SIZE);
                let mut batch = self.dm.batch();
                if let Some((addr, data)) = write {
                    batch
                        .write(addr, data)
                        .expect("a lookup batch holds three verbs");
                }
                batch
                    .read_into(primary_addr, primary_buf)
                    .expect("a lookup batch holds three verbs");
                batch
                    .read_into(secondary_addr, secondary_buf)
                    .expect("a lookup batch holds three verbs");
                match batch.try_execute_mode(self.config.enable_doorbell_batching) {
                    Ok(_) => write = None,
                    Err(e) => {
                        if retryable(&self.dm, &e) {
                            continue;
                        }
                        return Err(e);
                    }
                }
                if SampleFriendlyHashTable::bucket_tainted(primary_buf)
                    || SampleFriendlyHashTable::bucket_tainted(secondary_buf)
                {
                    self.dm.advance_ns(CAS_RETRY_BACKOFF_NS);
                    continue;
                }
                SampleFriendlyHashTable::decode_slots(primary_addr, primary_buf, &mut slots);
                SampleFriendlyHashTable::decode_slots(secondary_addr, secondary_buf, &mut slots);
                self.charge_decode(2 * SLOTS_PER_BUCKET);
            }
            if (self.table.bucket_entry_token(primary) == ptok
                && self.table.bucket_entry_token(secondary) == stok)
                || last
            {
                let found = Self::find_live(&slots, hash, fp);
                if let Some(found) = &found {
                    riders.spec.validate(found);
                }
                return Ok(Lookup::new(slots, found));
            }
            attempt += 1;
        }
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
    use super::{Hint, HintTable, HINT_ENTRIES};
    use crate::cache::DittoCache;
    use crate::config::DittoConfig;
    use crate::hash::fnv1a64;
    use crate::slot::SLOTS_PER_BUCKET;
    use ditto_dm::DmConfig;

    fn small_cache() -> DittoCache {
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(1_000), DmConfig::default())
            .unwrap()
    }

    #[test]
    fn hint_table_is_direct_mapped_and_epoch_filtered() {
        let mut hints = HintTable::new();
        let (a, word) = (0xabcd_0000_1234_5678u64, 0x11u64);
        assert_eq!(hints.get(a, 7), None);
        for secondary in [false, true] {
            let hint = Hint { word, secondary };
            hints.put(a, hint, 7);
            assert_eq!(hints.get(a, 7), Some(hint));
        }
        // The board saw the key's slot mutate: the hint is filtered.
        assert_eq!(hints.get(a, 8), None);
        // Another key in the same entry is told apart by its tag, displaces
        // the resident one, and is not dropped on the other's behalf.
        let b = a ^ (1 << 40);
        assert_eq!(HintTable::index(a), HintTable::index(b));
        assert_eq!(hints.get(b, 7), None);
        let other = Hint {
            word: 0x22,
            secondary: false,
        };
        hints.put(b, other, 3);
        assert_eq!(hints.get(a, 7), None);
        hints.forget(a);
        assert_eq!(hints.get(b, 3), Some(other));
        hints.forget(b);
        assert_eq!(hints.get(b, 3), None);
        assert_eq!(
            std::mem::size_of_val(&*hints.entries),
            HINT_ENTRIES * 16,
            "16 bytes per entry"
        );
    }

    #[test]
    fn get_reads_both_buckets_plus_object() {
        let cache = small_cache();
        let mut client = cache.client();
        client.set(b"probe", b"x");
        cache.pool().reset_stats();
        let _ = client.get(b"probe");
        let reads = cache.pool().stats().node_snapshots()[0].reads;
        assert_eq!(reads, 3, "expected 2 bucket READs + 1 object READ");
        // The Set left a hint, so all three READs were issued behind a
        // single doorbell: the object READ rode along speculatively.
        assert_eq!(cache.pool().stats().doorbells(), 1);
        assert_eq!(cache.pool().stats().batched_verbs(), 3);
        assert_eq!(cache.stats().spec_reads_issued(), 1);
        assert_eq!(cache.stats().spec_reads_wasted(), 0);
    }

    #[test]
    fn pipelined_get_issues_identical_verbs_hinted_or_not() {
        let run = |async_completion: bool| {
            let config = DittoConfig::with_capacity(1_000).with_async_completion(async_completion);
            let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
            let mut client = cache.client();
            client.set(b"probe", b"x");
            cache.pool().reset_stats();
            let _ = client.get(b"probe");
            let snap = cache.pool().stats().node_snapshots()[0];
            let stats = cache.pool().stats();
            (
                (snap.reads, snap.messages, stats.doorbells()),
                stats.batched_verbs(),
                cache.stats().spec_reads_issued(),
            )
        };
        // Pipelining — the hinted Get's speculation included — changes when
        // latency is charged, never what travels.  The doorbell count is the
        // same as well: `PoolStats` counts posted rounds only, and the
        // object READ the speculation folds into the lookup's doorbell was a
        // synchronous verb (which rings none) before.
        let (pipelined, behind_doorbell, speculated) = run(true);
        let (synchronous, sync_behind_doorbell, sync_speculated) = run(false);
        assert_eq!(pipelined, synchronous);
        assert_eq!((behind_doorbell, sync_behind_doorbell), (3, 2));
        assert_eq!((speculated, sync_speculated), (1, 0));
    }

    #[test]
    fn hinted_get_is_one_round_trip() {
        let cache = small_cache();
        let mut client = cache.client();
        client.set(b"probe", b"x"); // the publish CAS leaves the hint
        cache.pool().reset_stats();
        let t0 = client.dm().now_ns();
        assert_eq!(client.get(b"probe").as_deref(), Some(&b"x"[..]));
        let elapsed = client.dm().now_ns() - t0;
        let (dm, decode) = (
            DmConfig::default(),
            DittoConfig::with_capacity(1).cpu_decode_slot_ns,
        );
        // One doorbell carrying three READs, one flight, at most three polls
        // and two bucket decodes: strictly less than two round trips.
        let posting = dm.doorbell_latency_ns + 3 * dm.verb_issue_ns;
        let flight = dm.transfer_latency_ns(dm.read_latency_ns, 1_024);
        let cpu = 3 * dm.cq_poll_ns + 2 * SLOTS_PER_BUCKET as u64 * decode;
        assert!(elapsed <= posting + flight + cpu, "{elapsed}");
        assert!(elapsed < 2 * dm.read_latency_ns);
        assert_eq!(cache.pool().stats().node_snapshots()[0].reads, 3);
        let stats = cache.stats();
        assert_eq!(
            (stats.spec_reads_issued(), stats.spec_reads_wasted()),
            (1, 0)
        );
        // The validated hit re-installed the hint: the next Get repeats it.
        let t1 = client.dm().now_ns();
        assert!(client.get(b"probe").is_some());
        assert_eq!(client.dm().now_ns() - t1, elapsed);
        assert_eq!(
            (stats.spec_reads_issued(), stats.spec_reads_wasted()),
            (2, 0)
        );
    }

    #[test]
    fn stale_hint_costs_one_read_and_no_round_trip() {
        let cache = small_cache();
        let (mut client, mut writer) = (cache.client(), cache.client());
        let hash = fnv1a64(b"probe");
        client.set(b"probe", b"old");
        let stale = client.hints.get(hash, 0).unwrap();

        // What an unhinted Get costs.
        client.hints.forget(hash);
        let t0 = client.dm().now_ns();
        assert!(client.get(b"probe").is_some());
        let unhinted = client.dm().now_ns() - t0;
        assert_eq!(cache.stats().spec_reads_issued(), 0);

        // Another client replaces the value.  Its board bump would filter
        // the reader's hint; re-stamp the stale word with the current epoch,
        // as if the writer sat in another process the board cannot see.
        writer.set(b"probe", b"new");
        let hint_epoch = client.hint_epoch(hash, client.board.epoch(hash));
        assert_eq!(client.hints.get(hash, hint_epoch), None);
        client.hints.put(hash, stale, hint_epoch);
        cache.pool().reset_stats();
        let t0 = client.dm().now_ns();
        assert_eq!(client.get(b"probe").as_deref(), Some(&b"new"[..]));
        let mispredicted = client.dm().now_ns() - t0;

        // The slot word no longer matched: the speculative bytes were
        // discarded and the Get went on as without a hint — one READ more…
        assert_eq!(cache.pool().stats().node_snapshots()[0].reads, 4);
        let stats = cache.stats();
        assert_eq!(
            (stats.spec_reads_issued(), stats.spec_reads_wasted()),
            (1, 1)
        );
        // …its posting and its poll, but no round trip.
        let dm = DmConfig::default();
        assert_eq!(mispredicted, unhinted + dm.verb_issue_ns + dm.cq_poll_ns);
        // The hit installed the fresh word: the next Get speculates right.
        assert!(client.get(b"probe").is_some());
        assert_eq!(
            (stats.spec_reads_issued(), stats.spec_reads_wasted()),
            (2, 1)
        );
    }
}
