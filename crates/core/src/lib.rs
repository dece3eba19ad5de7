//! Ditto: an elastic and adaptive caching system on disaggregated memory.
//!
//! This crate implements the paper's two contributions on top of the
//! [`ditto_dm`] substrate:
//!
//! 1. the **client-centric caching framework** (§4.2) — the sample-friendly
//!    hash table ([`hashtable`]), object layout ([`object`]), client-side
//!    frequency-counter cache ([`fc_cache`]) and the `Get`/`Set`/eviction
//!    data path ([`client`]) that runs arbitrary caching algorithms with only
//!    one-sided remote-memory verbs;
//! 2. **distributed adaptive caching** (§4.3) — the embedded lightweight
//!    eviction history ([`history`]), regret-minimisation expert weights and
//!    the lazy weight-update scheme ([`adaptive`]).
//!
//! [`sim`] additionally provides a process-local simulator for fast
//! hit-rate sweeps that runs the client's own adaptive policy
//! ([`adaptive::AdaptivePolicy`]) with the same parameters, and
//! [`recovery`] documents the crash-consistency model behind
//! [`DittoClient::recover_crashed_client`] — what a client death can leak
//! and how a survivor reclaims it (see also the *Failure model* section of
//! the [`ditto_dm`] crate docs for the fault classes and lease protocol).
//!
//! # The one-round-trip `Get`
//!
//! A client-centric `Get` is two *dependent* round trips and three READs:
//! READ both buckets, decode the slot's pointer, READ the object.  Every
//! client keeps a fixed-size, two-choice set-associative, allocation-free
//! **hint table** `key hash → last slot word seen, and where` (2 MiB, a
//! constant; *where* is one bit of bucket and three of slot index), and a
//! `Get` whose key has a hint READs **that one 40-byte slot** instead of
//! both 320-byte buckets — its address re-translated through the stripe
//! directory and the entry token re-checked exactly like a bucket READ's.  When the slot's atomic
//! word still **equals** the hint (and its hash and fingerprint are the
//! key's), the lookup is done with that fully decoded slot; the object READ
//! was posted beside the slot READ on the same ring, so its bytes have
//! already landed and the hit took two READs and one round trip.  Any other
//! outcome (the key was replaced,
//! evicted, relocated; the stripe moved; a READ faulted) is a misprediction
//! ([`CacheStats::spec_reads_wasted`] of [`CacheStats::spec_reads_issued`]):
//! it cost a round trip, the hint is dropped, and the `Get` continues
//! exactly as an unhinted one does.
//!
//! Correctness rests on that word comparison, plus one trust rule for the
//! object READ, which was posted before the slot vouched for it.  An object
//! on the slot's node travels the slot's queue pair behind it, in order, so
//! a hint that holds is the usual two dependent READs in the usual order,
//! minus the wait between them.  An object off its slot's node (after an
//! `add_node` or a `drain_node`, [`CacheStats::spec_reads_split`]) rings a
//! second doorbell on the same ring, and its READ may execute before the
//! slot READ: it is served only if the key's board epoch, read again after
//! both completions, is still the one the `Get` read before posting.  A
//! block comes back under the hinted word only after its key's bump — an
//! eviction and a replace both bump before they free — so a READ that
//! landed early on a recycled block sees the epoch moved
//! (`client/lookup.rs` states the argument).  Hints are kept truthful for free where the client already knows the answer: every slot
//! CAS it wins (publish, replace, sampling or bucket eviction, relocation)
//! updates or drops the entry, an unhinted remote hit installs it, and the
//! [`local_tier::CoherenceBoard`] epoch the `Get` already reads — less the
//! client's own bumps — filters hints another in-process client staled
//! before any verb is posted.
//!
//! # The one-round-trip `Set`
//!
//! A client-centric `Set` is search → `RDMA_WRITE` → `RDMA_CAS`: even with
//! the WRITE on the lookup's doorbell, two *dependent* round trips — READ the
//! buckets to learn the key's slot and its word, then CAS that word.  A hint
//! holds exactly what the CAS needs, so a `Set` whose key has one posts
//! **`WRITE(new object, unsignalled)` + `CAS(hinted slot, hinted word → new
//! word, signalled)` behind one doorbell** and polls one completion: the CAS
//! returning the hinted word *is* the publish — doorbell + 2 × issue +
//! max(WRITE, CAS) + poll, three messages instead of five.  Anything else
//! (the word changed, a verb faulted) is a misprediction
//! ([`CacheStats::spec_publishes_wasted`] of
//! [`CacheStats::spec_publishes_issued`]): it cost that one round trip, the
//! hint is dropped, and the `Set` goes on through the lookup it tried to
//! skip, its object already written.
//!
//! It is one of the round shapes the `Set` path's planner picks
//! (`client/round.rs`, see below), not a second protocol: the slot's place is
//! re-translated through the stripe directory, a CAS that took effect needs
//! no judgement, like any slot CAS that keeps the slot's key (it landed on the
//! live copy, or a stripe reconcile carried it), the journal's old half is
//! written from the hinted word before the doorbell, and the won CAS is
//! followed by the same hint update, metadata WRITE, free of the displaced
//! object and end-of-`Set` board bump.  The planner takes it only when the
//! new object lives on the slot's node (the flush rule, `Rule::Flush`), when
//! no eviction rides the `Set`, and when no expert keeps extension words
//! (their Update rule needs the decoded slot, which a blind CAS never reads).
//!
//! A `Get` checks its hint against the slot it reads; a CAS that returns the
//! hinted word proves only that the slot holds it *now*.  So a `Set` takes
//! only a hint that matches its key in all 64 hash bits, and leans on bump
//! before free (`Rule::BumpBeforeFree`) and the ABA argument, which
//! `client/lookup.rs` states with what remains (a single process, like the
//! tier).  Nor does an update wait for its frequency counter any more: a due
//! FC flush waits, as after every hit, for the client's next hinted `Get`,
//! whose ring carries it unsignalled behind the `Get`'s READs.
//!
//! # Which messages a hit and a cutover send
//!
//! The memory pool has no CPU; its RNICs' message rate is the scarce
//! resource (it is why the FC cache combines `FAA`s client-side), and an
//! unsignalled verb nobody waits for is a message all the same.  Two rules
//! keep messages nobody needs off the wire — both observed, neither a
//! setting.  (What the FC cache still holds when a client leaves,
//! [`DittoClient::flush`] sends as one `FAA` per counter all the same, but
//! at doorbell rate: `MAX_WQES` to a ring, one doorbell per node and one
//! wait per ring, a faulted or flushed `FAA` re-posted in the next.)
//!
//! **A hit rewrites `last_ts` only when it is stale enough to matter**
//! ([`recency`]).  Both `Get` paths have just read the slot's stored
//! timestamp, so the client knows how stale it is and skips the 8-byte WRITE
//! while `now − last_ts < τ`, τ being 1/16 of the *eviction age* it observes:
//! a running average, fed at every victim selection, of the oldest sampled
//! candidate's idle time — what the LRU expert would evict, whichever expert
//! wins.  A stored timestamp is then never more than τ behind the truth, so
//! sampled LRU misorders two objects only if their last accesses lie within
//! a sixteenth of the age at which anything is evicted at all.  Before a
//! client has evicted anything the estimate is the time since its own first
//! operation (nothing it reads has been evicted for that long) — and zero,
//! every hit writes, from its first miss until it does see an eviction:
//! that is the rule's hazard, a reader that never evicts beside a client
//! that does, whose uptime says nothing about the age its hot keys are
//! being evicted at (`tests/lazy_last_ts.rs` drives it).  Whichever applies,
//! the estimate is at least the time since the client last saw evidence of
//! an eviction — its own, a history counter read or fetched past its
//! estimate, a miss on a key evicted since — so a client whose evictions
//! stopped is not held to the age of its last one.  `Set`s always
//! write: the hinted replace never reads the slot.  The local tier's hits
//! follow the same rule, judged against the timestamp the tier entry last
//! saw or wrote: remote hits, local hits and replaces all go through one
//! routine (`record_access`), so [`CacheStats::ts_writes_sent`] /
//! [`CacheStats::ts_writes_skipped`] count every hit's and every replace's
//! outcome; [`SimCache`] runs the same function on its logical clock, and
//! the sweep that picked 16 ([`recency::LAST_TS_DIVISOR`]) lives in its
//! tests.  Before it stamps, that routine counts the access: the FC
//! cache's record, whose due `FAA` waits for the next hinted `Get`'s ring
//! (a second access's due `FAA` posts the waiting one and its own,
//! unsignalled, on a doorbell of their own), or without an FC cache one
//! synchronous `FAA`.  A `Get` calls it
//! only once the object's key checks out, so a `Get` whose every attempt
//! reads another key's object sends no `FAA`, and no `FAA` rides a hit's
//! object `READ`.
//!
//! **A stripe cutover poisons only the words clients CAS.**  The table hands
//! the stripe directory its record layout — of each 40-byte slot, the atomic
//! word — and the commit pass swaps [`ditto_dm::RECONCILE_POISON`] into those
//! words alone, a fifth of the CASes it used to send; hash, timestamps and
//! frequency ride the chunk's READ → WRITE.  Everything that looks for the
//! poison (the slot codec, the tainted-bucket check, hints, tier
//! revalidation, a slot CAS observing it) looks at the atomic word already.
//! The argument, and the one best-effort loss it accepts, are stated beside
//! the constant.
//!
//! # The `Set` path under memory pressure: evict-ahead, and the one-round fill
//!
//! A `Set` allocates its object, writes it next to the two bucket READs of
//! its lookup (one doorbell) and publishes it with one slot CAS.  Once the
//! pool is full, memory comes from sampling eviction — the paper's three
//! verbs: a sample READ, an FAA for a history id, the CAS that turns the
//! victim's slot into a history entry — and eviction *replenishes* memory
//! instead of producing it: the `Set` allocates from a one-object **spare**
//! the previous evicting `Set` left on the client's free list, and then
//! frees one victim to leave the next spare.  None of that eviction's round
//! trips is the `Set`'s own.  The order is **take the spare → sample + id →
//! lookup → victim CAS ‖ publish**.
//!
//! Every round of the `Set` path is a plain value (`client/round.rs`): one
//! doorbell's verbs, each with its target, its signalled flag and its owner
//! — the `Set`, the eviction it runs, or the one it carries.  One planner
//! picks the `Set`'s next round from what the op knows, one executor posts
//! any round and routes its completions to their owners, and the ordering
//! rules that make the shapes sound are the variants of that module's
//! `Rule`, checked on every posted round in debug builds and argued there
//! once.  What follows names them.
//!
//! * The **history id is acquired before the victim is known**: the FAA goes
//!   out behind the first sample READ, and both ride the lookup's doorbell.
//!   That is sound because an id carries its shard
//!   ([`EvictionHistory::pack_id`]) and whoever meets the entry later — a
//!   regret check, an insert choosing among history slots — reads the shard
//!   off the id: *which* shard an eviction counts on is arbitrary, as long as
//!   entries spread over all of them (the sharded FIFOs jointly keep the
//!   configured length, the FAAs spread over the nodes).  It used to be the
//!   victim's hash; it is the first sampled slot index, uniform and already
//!   drawn.  A lost victim race re-picks under the same id.  What it costs:
//!   an eviction that ends with nothing evicted has **burnt** its id — one
//!   position of that shard's FIFO aged with no entry
//!   ([`CacheStats::history_ids_burnt`]; on a single client, in practice
//!   only a parked eviction's: dropped by a stripe cutover, or with its
//!   client).  A faulted FAA still evicts, leaving the slot cleared instead
//!   of a history entry, as it always has.
//! * The **victim CAS is posted, not waited for**: it flies during the
//!   publish CAS and is polled after it and, like a hinted publish's CAS,
//!   needs no judgement once it took effect (it landed on the live copy, or
//!   a stripe reconcile carried it).  A posted CAS has **no retry**: one
//!   that lost its race and one that faulted both leave the CAS's result
//!   buffer without the victim's word, both count as a lost race, and the
//!   eviction re-picks among its remaining candidates (bounded), waiting for
//!   that CAS in place — where a fault is retried like any slot CAS's.  It
//!   flies beside an insert only (`Rule::AfterPublish`, see *Crashes*).
//!
//! So a `Set` whose first sample held two candidates takes the round trips
//! of a plain `Set`, and each further sample adds one; the sample never
//! takes a slot of the `Set`'s own two buckets (`Rule::Sample`), so the two
//! CASes cannot meet on one word.  A sample is one READ of [`DittoConfig::SAMPLE_SPAN_SLOTS`]
//! consecutive slots — three per candidate, the table's density when full —
//! so it holds about K = 5 candidates and rarely fewer than the two a pick
//! needs.  Without a usable spare (first pressure, a larger object, a lost
//! victim race) the same routine runs inline to completion before the
//! lookup — sample and id behind one doorbell there too — as it does for
//! relocation and [`DittoClient::evict_once`];
//! [`CacheStats::evictions_inline`] against
//! [`CacheStats::evictions_overlapped`] shows how often.  The spare costs
//! one object of capacity per client and no message.
//!
//! **What a candidate is scored on.**  The experts score a candidate on its
//! slot's words as the sample read them, with one correction: its `freq`
//! gains the increments this client's FC cache still holds for the slot
//! ([`FcCache::pending_delta`]), which the word shows only once they reach
//! the flush threshold.  A pick scores as of the time its sample landed,
//! for the correction is folded into each candidate once, where its sample
//! is decoded (a bucket eviction's, where it gathers its candidates): a
//! parked pick too, whose decode and scoring the fill does not wait for
//! (see *The one-round fill*), and a re-pick after a lost victim CAS.  A
//! pick from a re-sample the fill deferred is made ops later: it scores
//! with the increments the FC cache held when that READ went out, recorded
//! beside it for the span's slots.  The experts' `on_evict` sees the
//! metadata the pick scored.  The increments belong to the key, not the
//! slot: when one of this client's CASes takes the key out — a won victim
//! CAS, a publish that puts another key in the slot, the failed-update
//! invalidation sweep — they are dropped ([`FcCache::discard`]), not
//! flushed onto the slot's next key.  So one client's eviction sees exact
//! counts, and its FC cache moves no victim.  Other clients' buffered increments stay out of sight, and a key
//! another client evicts still leaves this client's behind: the counters
//! are advisory.
//!
//! **The miss memo.**  A fill nearly always follows its key's miss, whose
//! lookup has just read and decoded both buckets.  The client keeps that view
//! until its next `Get` or `Set`, and a `Set` of the same key publishes from
//! it, choosing its insert slot from it before any verb, and reads no
//! bucket.  The memo is trusted on the rule a hint is — the key's
//! [`local_tier::CoherenceBoard`] epoch and the stripe directory's version
//! must not have moved since before the miss's READs — and an insert CAS
//! that lost falls back to the full lookup.  What the memo touches is the
//! duplicate-insert window `client/lookup.rs` argues.
//!
//! **The one-round fill.**  When the memo names an insert slot on the new
//! object's node, the fill rings **one doorbell** and returns without
//! polling any of it: the object WRITE and the insert slot's 32-byte
//! metadata WRITE, unsignalled, the insert CAS behind them (`Rule::Flush`)
//! and, under memory pressure, the victim CAS of the eviction the previous
//! fill *parked* and the sample READ and history FAA of its own.  It costs a
//! doorbell and six issues.  A cache may always miss, so the fill need not
//! learn before it returns whether its insert landed: a later op books it
//! (see *What an op leaves behind*).  Two rules keep that window sound.  The
//! metadata rides ahead of the CAS on one queue pair, so a won insert
//! carries its key's `hash` — which lookups match on — from the instant it
//! lands: a `Get` of the key by anyone after the ring hits, and another
//! client's `Set` of it replaces that copy instead of inserting a second.
//! And the key's board epoch, and the carried victim key's, move at ring
//! time, before the `Set` returns.  A fill that went by the lookup waits for
//! its insert, and leaves only the victim CAS it carried in flight, so that
//! a striped cache, whose fills take either shape, frees each victim at the
//! op a single-node one does (`tests/striped_parity.rs`).
//!
//! The fill's own eviction **parks** (`Rule::Park`) for the next starved
//! `Set` to carry, its candidates scored with the FC counts this client
//! buffers at ring time.  Every eviction holds its sample's bytes inline and
//! its READs land there, so no other eviction's sample overwrites them.  The
//! `Set` that carries it picks from what has landed (`take_parked`) and
//! never waits for a re-sample: unable to pick yet, it carries the eviction
//! **unpicked**, the one-round fill's ring carrying the next re-sample READ
//! in place of the victim CAS (a `Set` of another shape sends it as it
//! ends).  Under an extension expert, whose scoring READs object headers,
//! picks and re-samples are made in place.  Only a fill with nothing to
//! carry frees no victim — the first after `Set`s that evicted within
//! themselves — and the one after it evicts inline once for its object.  The
//! new sample never takes the carried victim's slot either (`Rule::Sample`).
//! A parked victim stays in the table, resident and evictable by anyone; a
//! carried CAS that finds its word gone re-picks among the parked
//! candidates.  A parked eviction's `Evict` span is split where the ops
//! split: the round that charges its pick records the sample half, the op
//! that books its victim CAS the victim half.
//!
//! # What an op leaves behind
//!
//! The work an op leaves for the client's later ops is one inline queue
//! (`client/deferred.rs`), at most one entry of each kind below.  Each entry
//! owns the work-request ids of the verbs it has in flight, and every
//! consumer of the completion queue polls through one routine
//! (`poll_routed`), which books a completion on the op's own evictions or on
//! the entry whose ids hold it (no two entries' ids overlap, and none comes
//! back to an op's own loop: both asserted in debug builds).  An op ends once
//! it has polled up to what the queue still has in flight (`end_op`), every
//! op kind first settles what it must (`settle_before`), and between a
//! round's doorbell and its first poll the client picks, under that round's
//! flight, for each queued eviction whose sample counts as landed
//! (`host_picks`): from the op after the one whose poll booked it, or after
//! the next, booked by a `Set`'s own polls.  A round an op leaves in flight
//! records its flight spans in no op, so the critical-path attribution
//! charges each op only the time it waited.
//!
//! * **Pending insert**, a one-round fill's.  Its completions — the insert
//!   CAS's, and the WRITEs' should they fail — mark the CAS polled.  It is
//!   booked by the op whose polls met it, as that op ends, and at the latest
//!   before the client's next `Set`, a `Get` of the key, `flush`,
//!   `evict_once`, a migration pump, a recovery, a forensic scan and `Drop`
//!   (after a crash, by recovery).  A won insert notes its hint, drops the
//!   slot's FC deltas and rolls forward across a stripe move.  A lost one is
//!   abandoned ([`CacheStats::fills_abandoned`]): its object is freed, and
//!   its metadata WRITE, which may have landed over another key's record, is
//!   undone — the `hash` put back, that key's epoch moved, a copy of it
//!   filled meanwhile kept — so the key lives once.
//! * **Carried eviction**, a fill's: its victim CAS in flight, or, unpicked,
//!   its re-sample READ.  Its completions are booked on it.  Once its
//!   re-sample has landed the client's round picks, journals the victim and
//!   sends its CAS on a ring of its own, moving the victim key's epoch as
//!   the fill's ring would have — or, short again, the next re-sample.  It is
//!   booked with the insert, once its CAS is polled: the victim is retired
//!   and freed, re-picked should the CAS have lost, and the journal
//!   disarmed.  A `Get` of the key waits for a picked one's CAS; every other
//!   kind above, and a booking that abandons the insert, settles it whole,
//!   picking in place if no round has ([`CacheStats::carried_picks_in_place`],
//!   [`CacheStats::resamples_waited`]), for under pressure the next `Set`'s
//!   allocation is served by the victim it frees.
//! * **Parked eviction**, a fill's own: its first sample in flight or landed,
//!   or its re-sample in flight.  Its completions are booked on it; the first
//!   round after its first sample landed decodes and picks, or sends the
//!   re-sample.  The next starved `Set` takes it up.  Any `Set` drops it once
//!   the stripe directory's version has moved (its candidates may name
//!   retired copies), polling what it has out and burning its history id, and
//!   `Drop` burns the id too.
//! * **FC riders**: the frequency-counter FAAs the last hinted `Get` carried.
//!   Their completions, errors only, are dropped; the next hinted `Get`
//!   replaces them.
//! * **Weight reply** of the last weight sync, which has no completion: the
//!   first `Get` or `Set` to begin at or after its arrival adopts it, and the
//!   next due sync or `flush` waits for it.
//!
//! **Crashes.**  A sampling eviction run within one op is not journalled: a
//! client that dies between its victim CAS landing and the free after it
//! leaks the victim's blocks — for good if they lie in a live client's
//! segment, until [`DittoClient::recover_crashed_client`] sweeps its segments
//! otherwise — and leaves the resident gauge that much too high.  The victim
//! a fill carries is: its free waits for the booking, so the fill's journal
//! entry names it beside the new object before its CAS goes out, and stays
//! armed until the booking.  A client that dies with its fill pending leaves
//! recovery the new object, kept if a slot references it, and the carried
//! victim's, freed if no slot references it and its range is still granted.
//! What must not change is what the *modelled* crash points find, and
//! `Rule::AfterPublish` keeps it: [`CrashPoint::AfterPublish`] sits in the
//! two publishes that displace an allocation (a replace, a bucket eviction),
//! an insert — every fill — holds none, so a victim CAS flies only beside an
//! insert.  Should that insert lose, the eviction is run to its end before
//! the `Set` tries again; riding a displacing publish, it waits until the
//! `Set` is through.  On the one-round path only [`CrashPoint::AfterAlloc`]
//! can fire, before the doorbell, and a fill that went by the lookup reaches
//! [`CrashPoint::AfterObjectWrite`] once its WRITE has landed.  So no crash
//! point sees a victim taken out of the table and not yet freed
//! (`tests/chaos.rs` drives all three points on a starved client that
//! replaces a key, and on fills that park and carry).

//! # The compute-side local tier
//!
//! [`local_tier`] adds an optional per-client cache of decoded hot objects
//! in front of the remote data path — enabled with
//! [`DittoConfig::with_local_tier`].  A `Get` that hits a lease-valid,
//! coherent entry costs **zero network messages**; one whose lease expired
//! costs a single 8-byte slot-word READ (at the raw slot address of
//! admission: where a hint re-translates its slot's place through the stripe
//! directory, the tier relies on the poison a stripe cutover leaves in the
//! old copy's words reading as changed).  Coherence is two-layered: an
//! in-process [`local_tier::CoherenceBoard`] of per-key-hash mutation
//! epochs (bumped by every publish/eviction/invalidation CAS before the
//! mutating op returns, making local hits linearizable against concurrent
//! writers) plus leases with slot-word revalidation, which model the
//! message cost a real multi-process deployment pays — leases that start
//! at the configured floor and grow with the time the entry's slot word
//! has been seen unchanged ([`local_tier::lease_for`]).  Tier hits keep the
//! slot's frequency counter and, by the rule of a remote hit, its
//! `last_ts` fed.  A remote hit is admitted once this client has read the
//! key repeatedly, by the FC cache's per-client frequency estimate
//! ([`local_tier::FREQ_ADMIT_THRESHOLD`]).  The tier is allocation-free
//! in steady state and every coherence event is counted in the lifetime
//! `local_*` counters of [`CacheStats`] (they survive
//! [`CacheStats::reset`]).
//!
//! # Threading model
//!
//! The cache mirrors the paper's deployment — many compute-node clients,
//! one shared pool:
//!
//! * [`DittoCache`] is `Send + Sync` (and a cheap `Arc`-backed `Clone`):
//!   build it once, hand a clone to every thread.
//! * [`DittoClient`] is **`Send` but not `Sync`** — one per OS thread,
//!   minted on its thread via [`DittoCache::client`].  It owns the
//!   per-thread queue pair ([`ditto_dm::DmClient`]), scratch buffers, RNG
//!   and the client-local frequency-counter cache.
//! * All shared mutable state lives behind remote verbs (slot CAS, FAA) or
//!   atomics, so `search`/`set`/eviction interleavings from different
//!   threads resolve through genuine CAS races: a lost slot CAS backs off,
//!   is counted in [`ditto_dm::PoolStats::contention`], and the operation
//!   re-reads and retries (bounded).  The migration pump may run in a
//!   background thread while foreground clients operate; the stripe
//!   directory's redirect rules arbitrate.
//! * **Exact vs. racy counters**: [`CacheStats`] and
//!   [`ditto_dm::PoolStats`] counters are atomics — individually exact,
//!   but cross-counter snapshots taken mid-run may straddle an operation.
//!   Hit/miss/eviction totals are exact once the issuing threads quiesce.
//!
//! These guarantees are pinned by compile-time assertions at the bottom of
//! this module.
//!
//! # Quick start
//!
//! ```
//! use ditto_core::{DittoCache, DittoConfig};
//! use ditto_dm::DmConfig;
//!
//! let config = DittoConfig::with_capacity(10_000);
//! let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
//! let mut client = cache.client();
//! client.set(b"user42", b"profile-data");
//! assert_eq!(client.get(b"user42").as_deref(), Some(&b"profile-data"[..]));
//! ```

pub mod adaptive;
pub mod cache;
pub mod client;
pub mod config;
pub mod error;
pub mod fc_cache;
pub mod hash;
pub mod hashtable;
pub mod history;
pub mod inline;
pub mod local_tier;
pub mod object;
pub mod recency;
pub mod recovery;
pub mod sim;
pub mod slot;
pub mod stats;

pub use adaptive::{AdaptivePolicy, WeightService};
pub use cache::DittoCache;
pub use client::DittoClient;
pub use config::DittoConfig;
pub use error::{CacheError, CacheResult};
pub use fc_cache::FcCache;
pub use hashtable::SampleFriendlyHashTable;
pub use history::EvictionHistory;
pub use local_tier::{CoherenceBoard, LocalTier, TierProbe};
pub use recovery::{CrashPoint, RecoveryReport};
pub use sim::{simulate_hit_rate, SimCache, SimConfig, SimStats};
pub use stats::{CacheStats, CacheStatsSnapshot};

// Compile-time pins of the threading contract: the shared cache handle is
// `Send + Sync`, the per-thread client is `Send` (movable into a spawned
// thread) but not `Sync`.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<DittoClient>();
    assert_send_sync::<DittoCache>();
    assert_send_sync::<CacheStats>();
    assert_send_sync::<WeightService>();
    assert_send_sync::<EvictionHistory>();
    assert_send_sync::<SampleFriendlyHashTable>();
};
