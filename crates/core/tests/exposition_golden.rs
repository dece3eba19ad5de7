//! The whole `DittoCache::text_exposition()` page of one fixed run, pinned
//! as a sorted set of lines.
//!
//! The run is small and seeded — two memory nodes, a cache an eighth the
//! size of its key set so `Set`s evict, one `add_node` pumped to completion
//! two thirds in, a small local tier, the flight recorder armed on every op —
//! and everything on the page is simulated or counted, so it repeats to the
//! byte.  A counter wired to the wrong field, a renamed series, a changed
//! help text or a dropped `# TYPE` line shows up as a line missing from one
//! side.
//!
//! The golden lives in `exposition_golden.txt`; the failure message prints
//! the lines that differ, and the whole new page, to regenerate it from.
//!
//! Re-derived when eviction came to score a candidate with the FC increments
//! the client still holds for it, and to drop them when the key leaves its
//! slot: other victims, so every count that follows from them moved — among
//! them hits 827 → 842, misses 1 258 → 1 243, evictions 604 → 574 (bucket
//! evictions 23 → 27), history inserts 581 → 547, regrets 103 → 97, weight
//! syncs 1 → 0, FC flushes 7 → 8, local hits 17 → 21, migrated objects
//! 202 → 196, and messages 6 291 / 6 612 / 1 716 → 6 188 / 6 556 / 1 700 on
//! nodes 0 / 1 / 2.
//!
//! Re-derived when a fill's parked pick came to be charged under the next
//! round's flight, and a client dropped holding a parked eviction came to
//! book its history id burnt: the same decisions and messages; burnt ids
//! 2 → 3; the `evict` phase's sum 3.469 → 2.170 ms and median
//! 3.328 → 2.176 µs, its sample half now the pick's CPU work alone; the op
//! latency sum 14.403 → 14.286 ms, the `poll` phase's 7.543 → 7.427 ms;
//! and lease time granted 33 764 148 → 33 469 053 ns.
//!
//! Re-derived when a hinted `Get` whose object is off its slot's node came
//! to READ it beside the slot, in one round trip: the same decisions.  A
//! hint the `add_node`'s relocations staled now sends its object READ too,
//! so READs 2 640 / 2 709 → 2 663 / 2 740 and messages 6 188 / 6 556 /
//! 1 700 → 6 211 / 6 587 / 1 699 on nodes 0 / 1 / 2, doorbells
//! 5 222 → 5 616 and CQ polls 7 745 → 8 139; the op latency sum
//! 14.286 → 14.083 ms, its 0.9 quantile 6.656 → 6.912 µs (such a
//! misprediction waits for the larger READ and two polls); `last_ts` WRITEs
//! 903 → 902; lease time granted 33 469 053 → 33 128 438 ns; and the
//! `spec_reads_split` help line.
//!
//! Re-derived when the remote lock moved out of `ditto-dm` into the
//! lock-based baselines: the twelve `ditto_lock_*` lines (HELP, TYPE and
//! value of `acquire_attempts`, `acquisitions`, `wait_retries` and
//! `exhaustions`, each 0) left the page, and the back-off help line now
//! reads "slot-CAS back-off".
//!
//! Re-derived when a client came to park its open segment's uncarved tail
//! on opening a new segment, instead of dropping it (the 280- and 320-byte
//! values make asks of two sizes, and the larger often outgrows the tail):
//! later asks are served from the parked tails, so segment `ALLOC`s fall, RPCs 269 / 299 → 259 / 290 on nodes
//! 0 / 1, and the victims and every count that follows from them moved —
//! among them hits 842 → 846, misses 1 243 → 1 239, evictions 574 → 562
//! (bucket evictions 27 → 32), history inserts 547 → 530, regrets
//! 97 → 90, migrated objects 196 → 191, and messages 6 211 / 6 587 /
//! 1 699 → 6 238 / 6 496 / 1 622 on nodes 0 / 1 / 2.
//!
//! Re-derived when a local-tier hit came to follow the one access rule of a
//! remote hit, booking a fresh `last_ts` as a skipped WRITE: `last_ts`
//! WRITEs skipped 40 → 72, and nothing else moved.
//!
//! Re-derived when a fill whose parked eviction's first sample was short
//! came to send its re-sample READ once its op has ended, for the next ops
//! to poll: the three `ditto_cache_resamples_deferred_total` lines (HELP,
//! TYPE and the value 0 — this run's 280- and 320-byte values leave every
//! fill's first sample enough candidates) joined the page, and nothing else
//! moved.
//!
//! Re-derived when a hash came to map onto its bucket by multiply-shift
//! instead of a mask (this run's 250 objects keep their 128 buckets) and
//! the page came to carry the table's pool bytes and the pool's used bytes:
//! the six `ditto_table_bytes` (40 960) and `ditto_pool_used_bytes`
//! (458 176) lines joined the page, and keys landed in other buckets, so
//! every count that follows from placement moved — among them hits
//! 846 → 840, misses 1 239 → 1 245, evictions 562 → 583 (bucket evictions
//! 32 → 33, inline 121 → 116, overlapped 409 → 434), history inserts
//! 530 → 550, regrets 90 → 84, deferred re-samples 0 → 1, local hits
//! 17 → 22, migrated objects 191 → 199, messages 6 238 / 6 496 / 1 622 →
//! 6 342 / 6 448 / 1 715 on nodes 0 / 1 / 2, and the op latency sum
//! 13.902 → 13.768 ms.
//!
//! Re-derived when a due FC flush came to ride the client's next hinted
//! `Get`'s ring instead of ringing a doorbell of its own: the same
//! decisions and messages; doorbells 5 543 → 5 539 (2 374 / 2 429 →
//! 2 372 / 2 427 on nodes 0 / 1), `post` spans 3 964 → 3 959 (their sum
//! 1.301550 → 1.300950 ms), spans recorded 33 256 → 33 251, the op latency
//! sum 13.767657 → 13.767057 ms, the `publish` phase's sum 3.776360 →
//! 3.776160 ms and lease time granted 32 051 110 → 32 049 835 ns.
//!
//! Re-derived when a regret came to divide its penalty by the probability
//! that its victim was drawn, carried in the history word: the weights move
//! differently, later draws pick other victims, and every count that
//! follows from them moved — among them hits 840 → 827, misses
//! 1 245 → 1 258, evictions 583 → 596 (bucket evictions 33 → 38,
//! overlapped 434 → 442), history inserts 550 → 558, regrets 84 → 94, FC
//! flushes 5 → 6, local hits 22 → 21, slot-CAS retries 0 → 1 (back-off
//! 0 → 200 ns), migrated objects 199 → 206, messages 6 342 / 6 448 /
//! 1 715 → 6 371 / 6 431 / 1 761 on nodes 0 / 1 / 2, and the op latency
//! sum 13.767057 → 13.787205 ms.
//!
//! Re-derived when a one-round fill came to return once its round is rung
//! and the client's next op to book it, and the page came to carry the
//! abandoned fills: the three `ditto_cache_fills_abandoned_total` lines
//! (HELP, TYPE and the value 0) joined the page.  The fill's eviction's
//! sample is decoded an op later, in this run where the `add_node` leaves
//! fills of both shapes, so other victims are picked and every count that
//! follows from them moved — among them hits 827 → 832, misses
//! 1 258 → 1 253, evictions 596 → 588 (bucket evictions 38 → 40, inline
//! 116 → 109, overlapped 442 → 439), history inserts 558 → 548, regrets
//! 94 → 90, burnt history ids 2 → 5, deferred re-samples 1 → 0, local hits
//! 21 → 22, slot-CAS retries 1 → 6 (back-off 200 → 1 200 ns), migrated
//! objects 206 → 202, messages 6 371 / 6 431 / 1 761 → 6 374 / 6 422 /
//! 1 721 on nodes 0 / 1 / 2, and the op latency sum 13.787205 → 12.070152
//! ms.
//!
//! Re-derived when a starved fill came to charge the pick it makes before
//! its ring, an eviction it takes up unpicked to be picked for by a later
//! op, and a fill that looks its key up to park its eviction undecoded, and
//! the page came to carry the re-samples waited for: the three
//! `ditto_cache_resamples_waited_total` lines (HELP, TYPE and the value 0)
//! joined the page.  The rings post later and other victims are picked, so
//! every count that follows from them moved — among them hits 832 → 828,
//! misses 1 253 → 1 257, sets 1 568 → 1 572, evictions 588 → 593 (bucket
//! evictions 40 → 32, inline 109 → 124, overlapped 439 → 437), history
//! inserts 548 → 561, burnt history ids 5 → 3, FC flushes 7 → 6, local hits
//! 22 → 17, local invalidations 0 → 4, slot-CAS retries 6 → 1 (back-off
//! 1 200 → 200 ns), migrated objects 202 → 200, doorbells 5 531 → 5 610,
//! CQ polls 8 168 → 8 242, messages 6 374 / 6 422 / 1 721 → 6 369 / 6 462 /
//! 1 753 on nodes 0 / 1 / 2, the op latency sum 12.070152 → 12.130573 ms,
//! and the `evict` phase's sum 1.314175 → 1.111055 ms.  The other lines
//! that moved: the hit rate, lease time granted and leases above the
//! floor, spec reads issued, split and wasted, spec publishes issued,
//! `last_ts` WRITEs sent and skipped, expert victories, migrated bytes,
//! batched verbs, signalled and unsignalled WQEs; per node the bytes, CAS,
//! doorbells, messages, writes and resident bytes of nodes 0 / 1 / 2, the
//! READs of nodes 1 / 2, the FAAs of node 1, the RPCs and their CPU time of
//! nodes 0 / 1; ops, sampled ops and spans recorded; the op latency count
//! and its 0.99 and 0.999 quantiles; every phase's count and sum but
//! `translate`'s sum, the `evict` phase's 0.5, 0.9 and 0.999 quantiles and
//! `relocate`'s 0.999.
//!
//! Re-derived when a weight sync came to be posted and its reply adopted by
//! a later op, and the page came to carry the syncs that waited for the
//! previous reply: the three `ditto_cache_weight_syncs_waited_total` lines
//! (HELP, TYPE and the value 0 — this run's 90 regrets fill no batch of
//! 100, so it syncs nothing) joined the page, and nothing else moved.
//!
//! Re-derived when a history-id FAA came to refresh the client's counter
//! estimate as a READ does, the eviction age to grow while no eviction is
//! seen, and the page to carry the counter READs and the carried evictions
//! picked in place: the six `ditto_cache_history_counter_reads_total` (0)
//! and `ditto_cache_carried_picks_in_place_total` (23) lines joined the
//! page; three counter READs fewer, READs 2 701 / 2 693 → 2 698 / 2 690 and
//! messages 6 369 / 6 462 → 6 366 / 6 458 on nodes 0 / 1; one `last_ts`
//! WRITE fewer (898 → 897, skipped 67 → 68; node 1's WRITEs 1 968 → 1 967);
//! bytes 1 009 931 / 1 027 838 → 1 009 907 / 1 027 806; spans 34 340 →
//! 34 334, `flight` spans 12 583 → 12 577 (sum 27.725 → 27.713 ms), the op
//! latency sum 12.131 → 12.119 ms, `poll`'s sum 6.0834 → 6.0840 ms, and
//! lease time granted 27 564 021 → 27 541 685 ns.  No eviction moved.

use ditto_core::{DittoCache, DittoConfig};
use ditto_dm::DmConfig;
use std::collections::BTreeSet;

const KEYS: u64 = 2_000;
const REQUESTS: u64 = 2_400;

fn run() -> String {
    let config = DittoConfig::with_capacity(KEYS / 8).with_local_tier(32, 20_000);
    let dm = DmConfig::default()
        .with_memory_nodes(2)
        .with_flight_recorder(1 << 16);
    let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
    let mut client = cache.client();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..REQUESTS {
        if i == REQUESTS * 2 / 3 {
            cache.pool().add_node().unwrap();
            let grown = cache.pump_migration();
            assert!(grown.stripes_moved > 0, "add_node moved nothing");
        }
        // xorshift64; squaring the draw skews the keys towards 0.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let key = format!("key-{:04}", (u * u * KEYS as f64) as u64);
        if state & 7 == 0 {
            client.set(key.as_bytes(), &[i as u8; 320]);
        } else if client.get(key.as_bytes()).is_none() {
            client.set(key.as_bytes(), &[i as u8; 280]);
        }
    }
    // A client folds its phase histograms into the pool's when it drops.
    drop(client);
    cache.text_exposition()
}

#[test]
fn exposition_page_matches_the_golden() {
    let page = run();
    let actual: BTreeSet<&str> = page.lines().collect();
    let golden: BTreeSet<&str> = include_str!("exposition_golden.txt").lines().collect();
    let missing: Vec<_> = golden.difference(&actual).collect();
    let unexpected: Vec<_> = actual.difference(&golden).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "golden lines the page lacks: {missing:#?}\npage lines the golden lacks: {unexpected:#?}\n\
         whole page, sorted:\n{}",
        actual.iter().copied().collect::<Vec<_>>().join("\n")
    );
    assert!(
        page.contains("ditto_cache_evictions_total")
            && !page.contains("ditto_cache_evictions_total 0\n"),
        "the run must evict"
    );
    assert!(!page.contains("ditto_stripe_cutovers_total 0\n"));
}
