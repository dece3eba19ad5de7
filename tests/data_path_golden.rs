//! The data path, pinned to the nanosecond.
//!
//! `ditto-core` has one data path: posted WQEs, one doorbell per node, polled
//! completions.  It used to be one of three selectable execution modes, and
//! the constants of the two YCSB-C replays below were captured by replaying
//! them on the last commit that had the modes, in its default (pipelined)
//! configuration — so an edit that moves the final simulated clock, the
//! message count or any cache counter changed *which verbs run or when*, and
//! must say so by re-deriving them.  The YCSB-A replay was captured when the
//! hinted replace went in, and pins it the same way.  The run is a single
//! client on a simulated clock: the numbers are the same under `cargo test`
//! and `cargo test --release`, on any host.
//!
//! Re-derived once since, when a hit stopped rewriting a `last_ts` that is
//! still fresh (`ditto_core::recency`) — a change to *which* verbs run, not
//! to when: the skipped WRITE was unsignalled and cost the clock nothing.
//! Each replay starts cold, so its first request is a miss and every hit
//! writes until the client has seen an eviction of its own.  The striped
//! replay therefore lost 3 283 messages (43 226 → 39 943) — one per skipped
//! timestamp — and nothing else, its clock identical to the nanosecond; the
//! YCSB-A replay never evicts, so it kept every WRITE and every number.
//! Only the single-node replay, with an eviction for every second miss,
//! shows the rule touching a decision: timestamps up to τ stale reorder a
//! handful of LRU picks (the experts' victories move 377/348 → 370/355, one
//! regret goes), and with different victims the later fills take 10 µs more
//! of its 43 ms (42 919 214 → 42 929 734 ns, 48 157 → 44 634 messages);
//! hits, misses and evictions are unchanged.
//!
//! Re-derived a second time when the evicting fill lost a round trip: the
//! history-id FAA now rides the first sample's doorbell — the lookup's, for an
//! eviction running ahead — and the victim CAS is posted to fly beside the
//! publish CAS instead of being waited for after it (the crate docs, *The
//! `Set` path under memory pressure*).  That moves *when* verbs run and, but
//! for one shard choice, not *which*: the sampling sequence, the victims and
//! with them **every** `CacheStatsSnapshot` field of both YCSB-C replays are
//! what they were — a changed hit, miss, eviction, regret or victory count
//! here means the victim sequence changed, and is a bug.  The single-node
//! replay's clock drops 42 929 734 → 41 385 869 ns, ≈ 2 129 ns for each of its
//! 725 evictions (the CAS's 2 200 ns less one more WQE issue and one more
//! poll); its messages 44 634 → 44 619, fifteen `last_ts` WRITEs the τ rule
//! skips now that the clock — which the eviction age is measured on — runs
//! faster.  The striped replay, with 58 sampling evictions, drops
//! 37 949 019 → 37 827 464 ns and 39 943 → 39 939 messages (three of them
//! skipped timestamps).
//! Its history ids now come from the shard the first sampled slot index
//! picks instead of the victim's hash, so its FAAs land on other nodes than
//! before: same counts, same regrets.  The YCSB-A replay never evicts and did
//! not move by a nanosecond.
//!
//! Re-derived a third time when the hint table went from direct-mapped to
//! 4-way set-associative, under the rule that only `clock_ns`, `messages`,
//! `published` and `timestamps` may move: a hint a conflicting key used to
//! displace now stays, so a `Get` that read both buckets reads its one slot
//! (a READ fewer, one round trip) and a replace that looked its slot up CASes
//! it blind.  Every `CacheStatsSnapshot` field of all four replays is what it
//! was.  Single-node: 41 385 869 → 41 155 464 ns, 44 619 → 44 510 messages,
//! timestamps (6 838, 3 542) → (6 834, 3 546) — the faster clock ages the
//! stored `last_ts` less.  Striped: 37 827 464 → 37 591 185 ns, 39 939 →
//! 39 833 messages, timestamps (7 453, 3 286) → (7 454, 3 285).  YCSB-A:
//! 36 215 958 → 35 977 859 ns, 41 669 → 41 507 messages, hinted replaces
//! 5 394 → 5 449.
//!
//! Re-derived a fourth time for two changes to the fill, measured apart.
//! First, an eviction sample spans 15 slots instead of 5, so it holds about
//! five candidates where it held 1.6.  That picks other victims, so every
//! field of the two YCSB-C replays moved.  Single-node: hits 10 380 → 10 390,
//! misses and sets 1 620 → 1 610, evictions and history inserts 725 → 715,
//! regrets 371 → 362, FC flushes 1 720 → 1 726, victories 370/355 → 418/297,
//! 41 155 464 → 39 644 306 ns, 44 510 → 43 532 messages, timestamps
//! (6 834, 3 546) → (6 689, 3 701).  Striped: hits 10 739 → 10 741, misses
//! and sets 1 261 → 1 259, evictions 62 → 60, history inserts 58 → 56,
//! regrets 11 → 9, victories 31/31 → 32/28, 37 591 185 → 37 566 302 ns,
//! 39 833 → 39 774 messages, timestamps (7 454, 3 285) → (7 412, 3 329).
//! Second, a fill right after its miss reuses the miss's bucket view and
//! posts no bucket READ.  That changes no decision.  Only `clock_ns`,
//! `messages` and `timestamps` may move, and the messages fall by two per
//! fill, less the `last_ts` WRITEs the faster clock no longer skips.
//! Single-node: 39 032 296 ns, 40 313 messages (−2 × 1 610 + 1), timestamps
//! (6 690, 3 700).  Striped: 36 877 929 ns, 37 267 messages (−2 × 1 259 +
//! 11), timestamps (7 423, 3 318).  The YCSB-A replay never evicts, so only
//! the memo moves it: 35 977 859 → 35 702 419 ns, 41 507 → 40 255 messages
//! (−2 × 626).
//!
//! Re-derived a fifth time when a fill right after its miss came to take one
//! round trip: its WRITE goes out unsignalled with the insert CAS behind it,
//! and under memory pressure the same doorbell carries the victim CAS of the
//! eviction the previous fill parked and the sample READ and history FAA of
//! its own, whose victim it parks in turn.  The YCSB-A replay never evicts,
//! so only its clock moves: its 626 fills save a round trip each,
//! 35 702 419 → 34 466 069 ns, with the same 40 255 messages.  In the YCSB-C
//! replays a victim is picked in one fill and taken out in the next, from a
//! sample that skips the victim then in flight, so the victims differ and
//! every field moves.  Single-node: hits 10 390 → 10 405, misses and sets
//! 1 610 → 1 595, evictions and history inserts 715 → 700, regrets
//! 362 → 347, FC flushes 1 726 → 1 725, victories 418/297 → 418/282,
//! 39 032 296 → 35 622 402 ns, 40 313 → 40 238 messages, timestamps
//! (6 690, 3 700) → (6 714, 3 691).  Striped: hits 10 741 → 10 738, misses
//! and sets 1 259 → 1 262, evictions 60 → 63, history inserts 56 → 59,
//! regrets 9 → 12, FC flushes 1 679 → 1 680, victories 32/28 → 34/29,
//! 36 877 929 → 34 617 675 ns, 37 267 → 37 336 messages, timestamps
//! (7 423, 3 318) → (7 465, 3 273).
//!
//! Re-derived a sixth time when the final `flush` came to drain the FC cache
//! through the work queue: `MAX_WQES` FAAs to a ring, each node's last one
//! signalled, one wait per ring, where it used to wait out one FAA per
//! buffered counter.  Only the drain's
//! own time may move.  `pre_flush_ns`, the clock when the last op ended, was
//! added then, with the values it had before the change; the messages and
//! every `CacheStatsSnapshot` field are unchanged.  Each moved `clock_ns`
//! names its old value at its golden.  Fig24's fourth rung and the no-FC
//! replay hold no FC cache, so they have nothing to drain and did not move.
//!
//! Re-derived a seventh time when eviction came to score each candidate on
//! its `freq` word plus the increments this client's FC cache still holds
//! for it, and to drop those when one of its CASes takes the key out of the
//! slot — where they used to be flushed onto the slot's next key.  Other
//! victims are picked, so every field of the replays that evict and hold an
//! FC cache moved; the YCSB-A replay never evicts, and fig24's fourth rung
//! and the no-FC replay hold no FC cache, so they did not.  Single-node:
//! hits 10 405 → 10 435, misses and sets 1 595 → 1 565, evictions and
//! history inserts 700 → 670, regrets 347 → 317, FC flushes 1 725 → 1 390,
//! victories 418/282 → 296/374, 33 496 601 → 33 358 961 ns before the
//! flush, 40 238 → 39 700 messages, timestamps (6 714, 3 691) →
//! (6 736, 3 699).  Striped: hits 10 738 → 10 745, misses and sets
//! 1 262 → 1 255, evictions 63 → 56, bucket evictions 4 → 3, history inserts
//! 59 → 53, regrets 12 → 5, FC flushes 1 680 → 1 664, victories
//! 34/29 → 23/33, 32 659 074 → 32 628 435 ns before the flush,
//! 37 336 → 37 293 messages, timestamps (7 465, 3 273) → (7 483, 3 262).
//! Fig24's rungs 1–3 moved as their goldens' comment says.  A single client
//! now sees exact counts, so its FC cache no longer moves a victim: the
//! single-node replay's hits, evictions, regrets and victories are the
//! no-FC replay's, and rung 3's are rung 4's
//! (`one_clients_fc_cache_moves_no_victim`).
//!
//! Re-derived an eighth time when a fill whose parked eviction's first
//! sample held too few candidates came to send its re-sample READ once its
//! op has ended, for the client's next ops to poll, and the `Set` that
//! carries the eviction to pick from it.  The same samples are read and the
//! same victims picked in the single-node and no-FC replays: only their
//! clocks and the `last_ts` WRITEs the faster clock skips moved (each
//! golden names its old values).  The striped replay, whose samples span
//! four nodes, and the YCSB-A replay did not move.  Fig24's scattered
//! metadata reads K single slots, short of two candidates far more often,
//! and a pick made a few ops later by the carrying `Set` chooses other
//! victims there: rungs 1–4 moved as their goldens' comment says.
//!
//! Re-derived a ninth time when the table came to hold exactly ⌈3N/8⌉
//! buckets for N objects, rounded up to whole stripes (700 objects: 512 →
//! 320 buckets; 350: 256 → 192), and a hash to map onto them by
//! multiply-shift instead of a mask.  Keys land in other buckets, samples
//! read other slots and other victims are picked, so every replay that
//! evicts moved in every field; each golden names its old values.  The
//! YCSB-A replay never evicts and did not move.  The single-node replay
//! saw its first bucket eviction, so its history inserts are one short of
//! its evictions.  The striped replay's pool has room for several times its
//! 350 objects (each node's 64 KiB margin and migration headroom), so the
//! denser table fills before the memory does: 35 of its 45 evictions are
//! bucket evictions (3 of 56 before).
//!
//! Re-derived a tenth time when a regret came to divide its penalty by the
//! probability that its victim was drawn, carried in the history word
//! beside the expert bitmap.  The weights move differently, so later draws
//! pick other victims: the single-node, no-FC and fig24 replays moved in
//! every field, and each golden names its old values.  The striped replay
//! (35 of its 45 evictions by bucket) and the YCSB-A replay did not move.
//!
//! Re-derived an eleventh time when a one-round fill came to return once its
//! round is rung — the insert slot's metadata WRITE riding ahead of the
//! insert CAS — and the client's next op to book it: its eviction's sample
//! is decoded, and the victim it carried freed, an op later.  The same
//! victims are picked: every `CacheStatsSnapshot` field of the single-node,
//! striped, YCSB-A and no-FC replays is what it was, and only their clocks
//! and the `last_ts` WRITEs the faster clocks skip moved (each golden names
//! its old values).  Fig24's scattered metadata reads K single slots, short
//! of two candidates far more often, and decoding a fill's sample an op
//! later picks other victims there: rungs 1–4 moved as their goldens'
//! comment says.
//!
//! Re-derived a twelfth time when a weight sync came to be posted, its
//! reply adopted by a later op, instead of waited for inside the miss that
//! completed the batch: each sync costs its op a ring's posting time
//! (200 ns) in place of the RPC's 5 µs round trip.  Every
//! `CacheStatsSnapshot` field of every replay is what it was; only the
//! clocks of the replays that sync moved, and the `last_ts` WRITEs their
//! faster clocks skip (each golden names its old values).  The striped and
//! YCSB-A replays sync nothing and did not move.

use ditto::cache::stats::CacheStatsSnapshot;
use ditto::cache::{DittoCache, DittoClient, DittoConfig};
use ditto::dm::obs::attribution;
use ditto::dm::{DmConfig, FaultPlan};
use ditto::workloads::{Op, YcsbSpec, YcsbWorkload};

/// What one replay must come out as.
#[derive(Debug, PartialEq)]
struct Golden {
    /// The client's simulated clock just before the final flush: when the
    /// replay's last op ended, which a change to the drain alone leaves
    /// where it was.
    pre_flush_ns: u64,
    /// The client's simulated clock after the final flush.
    clock_ns: u64,
    /// RNIC messages served, summed over the memory nodes.
    messages: u64,
    /// Hinted publishes issued, and how many of them mispredicted.
    published: (u64, u64),
    /// `last_ts` WRITEs sent (stale hits and replaces), and skipped by hits.
    timestamps: (u64, u64),
    stats: CacheStatsSnapshot,
}

/// A replay's golden, with what a test reads off it besides: the cache, its
/// client and the READs its `Set`s issued.
struct Replayed {
    golden: Golden,
    cache: DittoCache,
    client: DittoClient,
    set_reads: u64,
}

fn replay(mix: YcsbWorkload, dm: DmConfig, config: DittoConfig) -> Golden {
    replay_keeping(mix, dm, config).golden
}

/// READs served, summed over the memory nodes.
fn reads(cache: &DittoCache) -> u64 {
    let nodes = cache.pool().stats().node_snapshots();
    nodes.iter().map(|node| node.reads).sum()
}

/// Replays a YCSB mix (seed 11, 2 000 records, 12 000 requests, cache-aside
/// fills on a miss) on a cache configured by `config` over the pool `dm`
/// describes, checking every hit's value.  The YCSB-C replays' capacity is well below
/// the touched key count, so they exercise eviction and the history
/// machinery beside hits, and every `Set` of theirs is a fill that holds no
/// hint; the YCSB-A replay has room for every record, so half its requests
/// are replaces, nearly all of them through the client's own hint.
fn replay_keeping(mix: YcsbWorkload, dm: DmConfig, config: DittoConfig) -> Replayed {
    let spec = YcsbSpec {
        record_count: 2_000,
        request_count: 12_000,
        ..YcsbSpec::default()
    }
    .with_seed(11);
    let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
    let mut client = cache.client();
    let mut set_reads = 0;
    let mut value_buf = Vec::new();
    for (i, request) in spec.run_requests(mix).into_iter().enumerate() {
        let key = request.key_bytes();
        let value = vec![request.key as u8; request.value_size as usize];
        if request.op == Op::Get && client.get_into(&key, &mut value_buf) {
            assert_eq!(value_buf, value, "request {i} hit a wrong value");
        } else {
            let before = reads(&cache);
            client.set(&key, &value);
            set_reads += reads(&cache) - before;
        }
    }
    let pre_flush_ns = client.dm().now_ns();
    client.flush();
    let nodes = cache.pool().stats().node_snapshots();
    let golden = Golden {
        pre_flush_ns,
        clock_ns: client.dm().now_ns(),
        messages: nodes.iter().map(|node| node.messages).sum(),
        published: (
            cache.stats().spec_publishes_issued(),
            cache.stats().spec_publishes_wasted(),
        ),
        timestamps: (
            cache.stats().ts_writes_sent(),
            cache.stats().ts_writes_skipped(),
        ),
        stats: cache.stats().snapshot(),
    };
    Replayed {
        golden,
        cache,
        client,
        set_reads,
    }
}

/// The single-node YCSB-C replay.  Its `clock_ns` fell 35 622 402 →
/// 33 609 052 when the drain began to share doorbells, 33 609 052 →
/// 33 432 382 when eviction came to score the FC cache's increments (module
/// docs), and 33 432 382 → 33 154 342 when a fill's parked pick came to be
/// charged under the next round's flight: the same decisions, four `last_ts`
/// WRITEs fewer (timestamps (6 736, 3 699) → (6 732, 3 703), messages
/// 39 700 → 39 696).  When a short sample's re-sample came to fly under the
/// next op: 33 080 921 → 32 818 539 ns before the flush, 33 154 342 →
/// 32 891 960 after, one `last_ts` WRITE fewer (timestamps (6 732, 3 703) →
/// (6 731, 3 704), messages 39 696 → 39 695).  When the table came to be
/// sized exactly (module docs): hits 10 435 → 10 475, misses and sets
/// 1 565 → 1 525, evictions 670 → 630 (bucket evictions 0 → 1, history
/// inserts 670 → 629), regrets 317 → 276, weight syncs 4 → 3, FC flushes
/// 1 390 → 1 411, victories 296/374 → 273/357, 32 818 539 → 32 633 522 ns
/// before the flush and 32 891 960 → 32 707 943 after, 39 695 → 39 289
/// messages, timestamps (6 731, 3 704) → (6 692, 3 783).  When a due FC
/// flush came to ride the next hinted `Get`'s ring instead of ringing its
/// own doorbell: 32 633 522 → 32 516 372 ns before the flush and
/// 32 707 943 → 32 590 793 after, the same decisions, one `last_ts` WRITE
/// fewer (timestamps (6 692, 3 783) → (6 691, 3 784), messages 39 289 →
/// 39 288).  When a regret came to be importance-weighted: hits
/// 10 475 → 10 485, misses and sets 1 525 → 1 515, evictions 630 → 620,
/// history inserts 629 → 619, regrets 276 → 266, FC flushes 1 411 → 1 420,
/// victories 273/357 → 269/351, 32 516 372 → 32 487 472 ns before the
/// flush and 32 590 793 → 32 562 193 after, 39 288 → 39 228 messages,
/// timestamps (6 691, 3 784) → (6 690, 3 795).  When a one-round fill came
/// to return once its round is rung: the same decisions,
/// 32 487 472 → 29 200 028 ns before the flush and 32 562 193 →
/// 29 274 749 after, 39 228 → 39 244 messages, timestamps (6 690, 3 795) →
/// (6 706, 3 779).  When a starved fill came to charge the pick it makes
/// before its ring, and an eviction it takes up unpicked to be picked for
/// by a later op: the rings post later, the fills' metadata stamps move and
/// so do LRU's picks — hits 10 485 → 10 479, misses and sets
/// 1 515 → 1 521, evictions 620 → 626, history inserts 619 → 625, regrets
/// 266 → 272, FC flushes 1 420 → 1 432, victories 269/351 → 233/393,
/// 29 200 028 → 29 208 991 ns before the flush and 29 274 749 →
/// 29 286 732 after, 39 244 → 39 288 messages, timestamps (6 706, 3 779) →
/// (6 696, 3 783).  When a weight sync came to be posted: the same
/// decisions and messages, 29 208 991 → 29 199 389 ns before the flush (two
/// syncs, 4 800 ns each) and 29 286 732 → 29 272 329 after (and the
/// flush's).  When a history-id FAA came to refresh the counter estimate as
/// a READ does, and the eviction age to grow while no eviction is seen: the
/// same decisions, three counter READs fewer (2 000 ns each),
/// 29 199 389 → 29 193 389 ns before the flush and 29 272 329 →
/// 29 266 329 after, 39 288 → 39 285 messages.
fn single_node_golden() -> Golden {
    Golden {
        pre_flush_ns: 29_193_389,
        clock_ns: 29_266_329,
        messages: 39_285,
        published: (0, 0),
        timestamps: (6_696, 3_783),
        stats: CacheStatsSnapshot {
            hits: 10_479,
            misses: 1_521,
            sets: 1_521,
            evictions: 626,
            bucket_evictions: 1,
            history_inserts: 625,
            regrets: 272,
            weight_syncs: 3,
            fc_flushes: 1_432,
            local_hits: 0,
            local_revalidations: 0,
            local_invalidations: 0,
            local_stale_rejects: 0,
            expert_victories: vec![233, 393],
        },
    }
}

/// YCSB-A with room for every record: nothing is evicted, and of its 6 697
/// `Set`s the 5 449 that replace a value this client still holds a hint for
/// take one round trip — the WRITE and the CAS behind one doorbell — none of
/// them mispredicted, and so do the 626 fills after a miss, which CAS the
/// slot their memo chose.  Its `clock_ns` fell 34 466 069 → 32 611 379 when
/// the drain began to share doorbells, and, when a due FC flush came to ride
/// the next hinted `Get`'s ring, 32 512 469 → 32 401 319 ns before the flush
/// and 32 611 379 → 32 500 229 after; and, when a one-round fill came to
/// return once its round is rung, 32 401 319 → 31 766 619 and
/// 32 500 229 → 31 865 529.
fn update_heavy_golden() -> Golden {
    Golden {
        pre_flush_ns: 31_766_619,
        clock_ns: 31_865_529,
        messages: 40_255,
        published: (5_449, 0),
        timestamps: (10_752, 0),
        stats: CacheStatsSnapshot {
            hits: 5_303,
            misses: 626,
            sets: 6_697,
            evictions: 0,
            bucket_evictions: 0,
            history_inserts: 0,
            regrets: 0,
            weight_syncs: 0,
            fc_flushes: 1_680,
            local_hits: 0,
            local_revalidations: 0,
            local_invalidations: 0,
            local_stale_rejects: 0,
            expert_victories: vec![0, 0],
        },
    }
}

#[test]
fn single_node_replay_matches_the_pipelined_path_to_the_nanosecond() {
    assert_eq!(
        replay(
            YcsbWorkload::C,
            DmConfig::default(),
            DittoConfig::with_capacity(700)
        ),
        single_node_golden()
    );
}

#[test]
fn striped_replay_matches_the_pipelined_path_to_the_nanosecond() {
    // On a 4-node pool an eviction sample splits into per-node segments whose
    // completions drain out of order, and a `Set`'s unsignalled object WRITE
    // can push its primary bucket's completion past the secondary's.  Its
    // `clock_ns` fell 34 617 675 → 32 763 495 when the drain began to share
    // doorbells, 32 763 495 → 32 729 686 when eviction came to score the FC
    // cache's increments, 32 729 686 → 32 723 656 when a fill's parked
    // pick came to be charged under the next round's flight, and
    // 32 723 656 → 32 655 281 when a hinted `Get` came to READ an object off
    // its slot's node beside the slot, in one round trip (the earlier clocks
    // skip one more `last_ts` WRITE: one message fewer).  When the table
    // came to be sized exactly (module docs): hits 10 745 → 10 741, misses
    // and sets 1 255 → 1 259, evictions 56 → 45, bucket evictions 3 → 35,
    // history inserts 53 → 10, regrets 5 → 0, weight syncs 1 → 0, FC
    // flushes 1 664 → 1 670, victories 23/33 → 16/29, 32 554 030 →
    // 32 434 778 ns before the flush and 32 655 281 → 32 531 328 after,
    // 37 292 → 36 312 messages, timestamps (7 482, 3 263) → (6 696, 4 045).
    // When a due FC flush came to ride the next hinted `Get`'s ring:
    // 32 434 778 → 32 395 628 ns before the flush and 32 531 328 →
    // 32 492 178 after.  When a one-round fill came to return once its
    // round is rung: 32 395 628 → 29 902 182 and 32 492 178 → 29 998 732
    // ns, 36 312 → 36 374 messages, timestamps (6 696, 4 045) →
    // (6 758, 3 983).  When a fill that looks its key up came to park its
    // eviction with its sample undecoded, as a one-round fill's, and a
    // starved fill to charge the pick it makes before its ring: the same
    // decisions, 29 902 182 → 29 898 882 and 29 998 732 → 29 995 432 ns.
    let golden = Golden {
        pre_flush_ns: 29_898_882,
        clock_ns: 29_995_432,
        messages: 36_374,
        published: (0, 0),
        timestamps: (6_758, 3_983),
        stats: CacheStatsSnapshot {
            hits: 10_741,
            misses: 1_259,
            sets: 1_259,
            evictions: 45,
            bucket_evictions: 35,
            history_inserts: 10,
            regrets: 0,
            weight_syncs: 0,
            fc_flushes: 1_670,
            local_hits: 0,
            local_revalidations: 0,
            local_invalidations: 0,
            local_stale_rejects: 0,
            expert_victories: vec![16, 29],
        },
    };
    assert_eq!(
        replay(
            YcsbWorkload::C,
            DmConfig::default().with_memory_nodes(4),
            DittoConfig::with_capacity(350)
        ),
        golden
    );
}

#[test]
fn update_heavy_replay_pins_the_replace_path_to_the_nanosecond() {
    assert_eq!(
        replay(
            YcsbWorkload::A,
            DmConfig::default(),
            DittoConfig::with_capacity(3_000)
        ),
        update_heavy_golden()
    );
}

/// An *active* fault plan that cannot fire in the run — a slow-NIC window at
/// the end of simulated time — puts every verb through the injector's
/// per-verb path (`FaultInjector::is_active` is true) and must move nothing:
/// injection is free when no fault fires, to the nanosecond.
#[test]
fn an_active_fault_plan_that_never_fires_moves_nothing() {
    let idle = || {
        DmConfig::default().with_fault_plan(FaultPlan::seeded(7).with_slow_nic(
            0,
            u64::MAX - 1,
            u64::MAX,
            300,
        ))
    };
    assert!(idle().fault.as_ref().is_some_and(FaultPlan::is_active));
    assert_eq!(
        replay(YcsbWorkload::C, idle(), DittoConfig::with_capacity(700)),
        single_node_golden()
    );
    assert_eq!(
        replay(YcsbWorkload::A, idle(), DittoConfig::with_capacity(3_000)),
        update_heavy_golden()
    );
}

/// The flight recorder reads the simulated clock but never advances it, and
/// its one-in-N sampling draw is a hash off the clock's path: armed in full
/// or sampled, the single-node replay is its golden to the nanosecond — the
/// same ops/s, hits, misses and evictions.  The armed run's critical path
/// attributes no more than the elapsed op time and shows what the posted
/// verbs hid, and a `Get` averages fewer than 2.2 READs (a hinted hit and a
/// miss take 2, an unhinted hit 3; the fills' READs are not counted).
#[test]
fn an_armed_or_sampled_flight_recorder_moves_nothing() {
    let spans = 1 << 17;
    let armed = replay_keeping(
        YcsbWorkload::C,
        DmConfig::default().with_flight_recorder(spans),
        DittoConfig::with_capacity(700),
    );
    let sampled = replay_keeping(
        YcsbWorkload::C,
        DmConfig::default().with_flight_recorder_sampled(spans, 16),
        DittoConfig::with_capacity(700),
    );
    assert_eq!(armed.golden, single_node_golden());
    assert_eq!(sampled.golden, single_node_golden());

    let armed_obs = armed.cache.pool().stats().obs();
    let sampled_obs = sampled.cache.pool().stats().obs();
    assert!(
        armed_obs.spans_recorded > 0,
        "the armed run recorded nothing"
    );
    assert!(
        sampled_obs.ops_sampled > 0 && sampled_obs.ops_skipped > 0,
        "one-in-16 sampling must both keep and skip ops: {sampled_obs:?}"
    );
    assert!(
        sampled_obs.spans_recorded < armed_obs.spans_recorded,
        "sampling must record fewer spans than full arming: {} vs {}",
        sampled_obs.spans_recorded,
        armed_obs.spans_recorded
    );

    let dm = armed.client.dm();
    let table = attribution(&[(dm.client_id(), dm.flight_spans())]);
    assert!(table.ops > 0, "attribution must cover the replay");
    assert!(
        table.critical_ns <= table.elapsed_ns,
        "critical-path shares sum past the elapsed op time: {} of {} ns",
        table.critical_ns,
        table.elapsed_ns
    );
    assert!(table.overlap_saved_ns() > 0, "posted verbs must overlap");

    let stats = &armed.golden.stats;
    let get_reads = reads(&armed.cache) - armed.set_reads;
    let reads_per_get = get_reads as f64 / (stats.hits + stats.misses) as f64;
    assert!(
        reads_per_get < 2.2,
        "a Get must issue fewer than 2.2 READs on average, measured {reads_per_get:.4}"
    );
}

/// A single-node YCSB-C golden: no hinted publish, no local tier, one fill
/// per miss and one history insert per eviction but a bucket eviction.
fn single_node_ablated(
    [pre_flush_ns, clock_ns]: [u64; 2],
    messages: u64,
    timestamps: (u64, u64),
    [hits, misses, evictions, bucket_evictions, regrets, weight_syncs, fc_flushes]: [u64; 7],
    expert_victories: [u64; 2],
) -> Golden {
    Golden {
        pre_flush_ns,
        clock_ns,
        messages,
        published: (0, 0),
        timestamps,
        stats: CacheStatsSnapshot {
            hits,
            misses,
            sets: misses,
            evictions,
            bucket_evictions,
            history_inserts: evictions - bucket_evictions,
            regrets,
            weight_syncs,
            fc_flushes,
            local_hits: 0,
            local_revalidations: 0,
            local_invalidations: 0,
            local_stale_rejects: 0,
            expert_victories: expert_victories.to_vec(),
        },
    }
}

/// Figure 24's rungs on the single-node YCSB-C replay, each taking one more
/// technique out than the one before: 1 scatters the metadata, 2 adds the
/// separate history, 3 the eager weight sync, 4 drops the FC cache.
fn fig24_rung(rung: usize) -> DittoConfig {
    let mut config = DittoConfig::with_capacity(700);
    config.enable_sample_friendly_table = rung < 1;
    config.enable_lightweight_history = rung < 2;
    if rung >= 3 {
        config.weight_sync_batch = 1;
    }
    if rung >= 4 {
        config.fc_cache_mb = 0.0;
    }
    config
}

/// The ablated data paths hold their numbers, every hit's value checked.
/// Rung 1's were set when the FC cache's off switch was a flag of its own
/// beside `fc_cache_mb`; when the drain began to share doorbells its
/// `clock_ns` fell 37 438 822 → 35 403 972.  The separate history keeps the
/// embedded entries' behaviour and adds only its own traffic — a queue
/// WRITE and an index CAS per won eviction, an index READ per miss — so
/// rung 2 evicts, regrets and syncs as rung 1 does, with 1 570 + 2 × 675
/// more messages less two WRITEs (one a `last_ts` WRITE its clock skips);
/// rung 3's eager sync then ships its regrets one by one.
///
/// When eviction came to score the FC cache's increments (module docs),
/// rungs 1–3 moved.  Rung 1: hits 10 383 → 10 430, misses 1 617 → 1 570,
/// evictions 722 → 675, regrets 368 → 322, FC flushes 1 727 → 1 369,
/// victories 372/350 → 292/383, 35 403 972 → 35 105 674 ns,
/// 54 092 → 53 101 messages, timestamps (6 839, 3 544) → (6 876, 3 554).
/// Rung 2: the same counts, 39 277 023 → 38 823 153 ns,
/// 57 153 → 56 019 messages, timestamps (6 839, 3 544) → (6 875, 3 555).
/// Rung 3: hits 10 387 → 10 439, misses 1 613 → 1 561, evictions
/// 718 → 666, regrets and syncs 365 → 313, FC flushes 1 724 → 1 371,
/// victories 427/291 → 280/386, 41 097 577 → 40 318 283 ns,
/// 57 592 → 56 260 messages, timestamps (6 860, 3 527) → (6 893, 3 546).
///
/// When a fill's parked pick came to be charged under the next round's
/// flight, only the clocks moved, each rung's decisions as they were.
/// Rung 1: 35 105 674 → 35 001 434 ns.  Rung 2: 38 823 153 → 38 718 913 ns.
/// Rung 3: 40 318 283 → 40 215 123 ns.  Rung 4: 63 062 713 → 62 959 553 ns,
/// and one `last_ts` WRITE (two messages without the co-designed table)
/// fewer: 65 328 → 65 326 messages, timestamps (6 893, 3 546) →
/// (6 892, 3 547).
///
/// When a short sample's re-sample came to fly under the next op, and its
/// pick to be made by the `Set` that carries it, every rung moved: the
/// scattered metadata's K slot READs come up short often, and the later
/// pick chooses other victims.  Rungs 1 and 2 still decide alike, and so do
/// rungs 3 and 4.  Rung 1: hits 10 430 → 10 429, misses 1 570 → 1 571,
/// evictions 675 → 676, regrets 322 → 323, FC flushes 1 369 → 1 358,
/// victories 292/383 → 293/383, 34 928 413 → 33 980 806 ns before the flush
/// and 35 001 434 → 34 050 957 after, 53 101 → 53 061 messages, timestamps
/// (6 876, 3 554) → (6 846, 3 583).  Rung 2: the same counts,
/// 38 645 892 → 38 617 861 and 38 718 913 → 38 688 012 ns,
/// 56 019 → 56 004 messages, timestamps (6 875, 3 555) → (6 856, 3 573).
/// Rung 3: hits 10 439 → 10 422, misses 1 561 → 1 578, evictions 666 → 683,
/// regrets and syncs 313 → 330, FC flushes 1 371 → 1 369, victories
/// 280/386 → 279/404, 40 146 953 → 40 322 398 and 40 215 123 → 40 390 418 ns,
/// 56 260 → 56 459 messages, timestamps (6 893, 3 546) → (6 856, 3 566).
/// Rung 4: rung 3's counts, 62 959 553 → 63 097 398 ns,
/// 65 326 → 65 480 messages, timestamps (6 892, 3 547) → (6 840, 3 582).
///
/// When every access came to be counted before it is stamped, rung 4 alone
/// moved: without an FC cache a hit's synchronous FAA now comes before its
/// `last_ts` decision, which flipped one hit near the freshness threshold
/// to a WRITE.  65 480 → 65 482 messages, timestamps (6 840, 3 582) →
/// (6 841, 3 581); the clock stays at 63 097 398 ns.
///
/// When the table came to be sized exactly (module docs), every rung moved,
/// rungs 1 and 2 still deciding alike and rungs 3 and 4 too, none with a
/// bucket eviction.  Rung 1: hits 10 429 → 10 450, misses 1 571 → 1 550,
/// evictions 676 → 655, regrets 323 → 300, weight syncs 4 → 3, FC flushes
/// 1 358 → 1 375, victories 293/383 → 300/355, 33 980 806 → 33 246 079 ns
/// before the flush and 34 050 957 → 33 311 529 after, 53 061 → 50 813
/// messages, timestamps (6 846, 3 583) → (6 787, 3 663).  Rung 2: the same
/// counts, 38 617 861 → 37 794 829 and 38 688 012 → 37 860 279 ns,
/// 56 004 → 53 689 messages, timestamps (6 856, 3 573) → (6 795, 3 655).
/// Rung 3: hits 10 422 → 10 453, misses 1 578 → 1 547, evictions 683 → 652,
/// regrets and syncs 330 → 297, FC flushes 1 369 → 1 384, victories
/// 279/404 → 276/376, 40 322 398 → 39 243 862 and 40 390 418 → 39 312 082
/// ns, 56 459 → 54 008 messages, timestamps (6 856, 3 566) → (6 819, 3 634).
/// Rung 4: rung 3's counts, 63 097 398 → 62 084 862 ns, 65 482 → 63 069
/// messages, timestamps (6 841, 3 581) → (6 815, 3 638).
///
/// When a due FC flush came to ride the next hinted `Get`'s ring, rungs 1–3
/// moved, every decision as it was; rung 4 has no FC cache.  Rung 1:
/// 33 246 079 → 33 129 529 ns before the flush and 33 311 529 →
/// 33 194 979 after, 50 813 → 50 811 messages, timestamps (6 787, 3 663) →
/// (6 786, 3 664).  Rung 2: 37 794 829 → 37 678 279 and 37 860 279 →
/// 37 743 729 ns.  Rung 3: 39 243 862 → 39 127 162 and 39 312 082 →
/// 39 195 382 ns.
///
/// When a regret came to be importance-weighted, every rung moved, rungs 1
/// and 2 still deciding alike and rungs 3 and 4 too.  Rung 1: hits
/// 10 450 → 10 451, misses 1 550 → 1 549, evictions 655 → 654, regrets
/// 300 → 299, FC flushes 1 375 → 1 387, victories 300/355 → 234/420,
/// 33 129 529 → 33 126 019 ns before the flush and 33 194 979 → 33 199 540
/// after, 50 811 → 50 809 messages, timestamps (6 786, 3 664) →
/// (6 772, 3 679).  Rung 2: the same counts, 37 678 279 → 37 670 564 and
/// 37 743 729 → 37 744 085 ns, 53 689 → 53 688 messages, timestamps
/// (6 795, 3 655) → (6 783, 3 668).  Rung 3: hits 10 453 → 10 455, misses
/// 1 547 → 1 545, evictions 652 → 650, regrets and syncs 297 → 296, FC
/// flushes 1 384 → 1 397, victories 276/376 → 162/488, 39 127 162 →
/// 39 131 164 and 39 195 382 → 39 199 934 ns, 54 008 → 53 993 messages,
/// timestamps (6 819, 3 634) → (6 797, 3 658).  Rung 4: rung 3's counts,
/// 62 084 862 → 62 093 164 ns, 63 069 → 63 051 messages, timestamps
/// (6 815, 3 638) → (6 797, 3 658).
///
/// When a one-round fill came to return once its round is rung, and its
/// eviction's sample to be decoded by a later round, rungs 1 and 2 moved in
/// every field — their scattered metadata comes up short often, and the
/// later decode re-samples on other ops — still deciding alike; rungs 3 and
/// 4 kept their decisions.  Rung 1: hits 10 451 → 10 453, misses
/// 1 549 → 1 547, evictions 654 → 652, regrets 299 → 297, FC flushes
/// 1 387 → 1 390, victories 234/420 → 242/410, 33 126 019 → 29 672 094 ns
/// before the flush and 33 199 540 → 29 745 765 after, 50 809 → 50 808
/// messages, timestamps (6 772, 3 679) → (6 781, 3 672).  Rung 2: the same
/// counts, 37 670 564 → 34 205 449 and 37 744 085 → 34 279 120 ns,
/// 53 688 → 53 683 messages, timestamps (6 783, 3 668) → (6 793, 3 660).
/// Rung 3: 39 131 164 → 35 688 648 and 39 199 934 → 35 757 418 ns,
/// 53 993 → 54 017 messages, timestamps (6 797, 3 658) → (6 809, 3 646).
/// Rung 4: 62 093 164 → 58 651 748 ns, 63 051 → 63 069 messages,
/// timestamps (6 797, 3 658) → (6 806, 3 649).
///
/// When a starved fill came to charge the pick it makes before its ring,
/// and an eviction it takes up unpicked — a short sample, common on rungs 1
/// and 2 — to be picked for by a later op, every rung moved, rungs 1 and 2
/// still deciding alike and rungs 3 and 4 too.  Rung 1: hits
/// 10 453 → 10 429, misses 1 547 → 1 571, evictions 652 → 676, regrets
/// 297 → 322, weight syncs 3 → 4, FC flushes 1 390 → 1 370, victories
/// 242/410 → 308/368, 29 672 094 → 29 513 570 ns before the flush and
/// 29 745 765 → 29 583 771 after, 50 808 → 51 114 messages, timestamps
/// (6 781, 3 672) → (6 784, 3 645).  Rung 2: the same counts,
/// 34 205 449 → 34 149 164 and 34 279 120 → 34 219 365 ns, 53 683 → 54 067
/// messages, timestamps (6 793, 3 660) → (6 799, 3 630).  Rung 3: hits
/// 10 455 → 10 436, misses 1 545 → 1 564, evictions 650 → 669, regrets and
/// syncs 296 → 315, FC flushes 1 397 → 1 389, victories 162/488 → 173/496,
/// 35 688 648 → 35 666 845 and 35 757 418 → 35 735 365 ns, 54 017 → 54 308
/// messages, timestamps (6 809, 3 646) → (6 816, 3 620).  Rung 4: rung 3's
/// counts, 58 651 748 → 58 589 245 ns, 63 069 → 63 341 messages,
/// timestamps (6 806, 3 649) → (6 809, 3 627).
///
/// When a weight sync came to be posted, its reply adopted by a later op,
/// every rung's decisions held and its clock moved, most on rungs 3 and 4,
/// whose 315 eager syncs each take 4 800 ns less.  Rung 1:
/// 29 513 570 → 29 499 167 ns before the flush and 29 583 771 → 29 564 567
/// after, 51 114 → 51 112 messages, timestamps (6 784, 3 645) →
/// (6 783, 3 646).  Rung 2: 34 149 164 → 34 134 761 and 34 219 365 →
/// 34 200 161 ns.  Rung 3: 35 666 845 → 34 154 530 and 35 735 365 →
/// 34 223 050 ns, 54 308 → 54 250 messages, timestamps (6 816, 3 620) →
/// (6 787, 3 649).  Rung 4: 58 589 245 → 57 076 930 ns, 63 341 → 63 307
/// messages, timestamps (6 809, 3 627) → (6 792, 3 644).
///
/// When a history-id FAA came to refresh the counter estimate as a READ
/// does, every rung's decisions held and three counter READs went, 6 000 ns
/// and three messages on every rung.  Rung 1: 29 499 167 → 29 493 167 ns
/// before the flush and 29 564 567 → 29 558 567 after, 51 112 → 51 107
/// messages: one `last_ts` WRITE fewer, and with it the scattered
/// metadata's second WRITE (timestamps (6 783, 3 646) → (6 782, 3 647)).
/// Rung 2: 34 134 761 → 34 128 761 and 34 200 161 → 34 194 161 ns,
/// 54 067 → 54 064 messages.  Rung 3: 34 154 530 → 34 148 530 and
/// 34 223 050 → 34 217 050 ns, 54 250 → 54 247 messages.  Rung 4:
/// 57 076 930 → 57 070 930 ns, 63 307 → 63 304 messages.
#[test]
fn fig24_ablation_rungs_hold_their_numbers() {
    let rungs = [
        single_node_ablated(
            [29_493_167, 29_558_567],
            51_107,
            (6_782, 3_647),
            [10_429, 1_571, 676, 0, 322, 4, 1_370],
            [308, 368],
        ),
        single_node_ablated(
            [34_128_761, 34_194_161],
            54_064,
            (6_799, 3_630),
            [10_429, 1_571, 676, 0, 322, 4, 1_370],
            [308, 368],
        ),
        single_node_ablated(
            [34_148_530, 34_217_050],
            54_247,
            (6_787, 3_649),
            [10_436, 1_564, 669, 0, 315, 315, 1_389],
            [173, 496],
        ),
        single_node_ablated(
            [57_070_930, 57_070_930],
            63_304,
            (6_792, 3_644),
            [10_436, 1_564, 669, 0, 315, 315, 10_436],
            [173, 496],
        ),
    ];
    let replayed: Vec<Golden> = (1..=4)
        .map(|rung| replay(YcsbWorkload::C, DmConfig::default(), fig24_rung(rung)))
        .collect();
    // Each rung measures its technique: the separate history still feeds
    // regrets, and the eager sync ships them more often than the lazy one.
    let (separate, eager) = (&replayed[1].stats, &replayed[2].stats);
    assert!(separate.regrets > 0, "rung 2 records regrets");
    assert!(
        eager.weight_syncs > separate.weight_syncs,
        "rung 3 syncs weights more often than rung 2"
    );
    for (rung, (got, golden)) in (1..).zip(replayed.into_iter().zip(rungs)) {
        assert_eq!(got, golden, "fig24 rung {rung}");
    }
}

/// Figure 25's first point alone: no FC cache, so every hit sends its own
/// FAA (one flush per hit) after its key check.  When a fill's parked pick
/// came to be charged under the next round's flight: 56 164 962 →
/// 55 886 922 ns, messages 48 756 → 48 752, timestamps (6 747, 3 688) →
/// (6 743, 3 692).  When a short sample's re-sample came to fly under the
/// next op: 55 881 921 → 55 619 539 ns before the flush, 55 886 922 →
/// 55 624 540 after, messages 48 752 → 48 748, timestamps (6 743, 3 692) →
/// (6 739, 3 696).  When the table came to be sized exactly (module docs),
/// the single-node replay's decisions moved alike (its golden names them),
/// FC flushes 10 435 → 10 475, 55 619 539 → 55 522 322 ns before the flush
/// and 55 624 540 → 55 527 323 after, messages 48 748 → 48 365, timestamps
/// (6 739, 3 696) → (6 704, 3 771).  When a regret came to be
/// importance-weighted, the decisions moved alike again, FC flushes
/// 10 475 → 10 485, 55 522 322 → 55 515 272 ns before the flush and
/// 55 527 323 → 55 520 273 after, messages 48 365 → 48 312, timestamps
/// (6 704, 3 771) → (6 709, 3 776).  When a one-round fill came to return
/// once its round is rung: the same decisions, 55 515 272 → 52 228 665 ns
/// before the flush and 55 520 273 → 52 233 666 after, messages
/// 48 312 → 48 316, timestamps (6 709, 3 776) → (6 713, 3 772).  When a
/// starved fill came to charge the pick it makes before its ring, the
/// decisions moved as the single-node replay's did, FC flushes
/// 10 485 → 10 479, 52 228 665 → 52 224 721 ns before the flush and
/// 52 233 666 → 52 229 722 after, messages 48 316 → 48 343, timestamps
/// (6 713, 3 772) → (6 704, 3 775).  When a weight sync came to be posted:
/// the same decisions, 52 224 721 → 52 215 119 ns before the flush and
/// 52 229 722 → 52 215 319 after.  When a history-id FAA came to refresh
/// the counter estimate: the same decisions, three counter READs fewer,
/// 52 215 119 → 52 209 119 ns before the flush and 52 215 319 → 52 209 319
/// after, messages 48 343 → 48 340.
fn no_fc_cache_golden() -> Golden {
    single_node_ablated(
        [52_209_119, 52_209_319],
        48_340,
        (6_704, 3_775),
        [10_479, 1_521, 626, 1, 272, 3, 10_479],
        [233, 393],
    )
}

#[test]
fn no_fc_cache_replay_holds_its_numbers() {
    let config = DittoConfig {
        fc_cache_mb: 0.0,
        ..DittoConfig::with_capacity(700)
    };
    assert_eq!(
        replay(YcsbWorkload::C, DmConfig::default(), config),
        no_fc_cache_golden()
    );
}

/// A single client's FC cache no longer moves a victim: eviction scores
/// each candidate on exactly the accesses the `freq` word would show had
/// every one sent its own FAA.  Only the flushes and the clock differ — and
/// with the clock which `last_ts` WRITEs a hit skips, which on these seeds
/// moved no LRU pick.  Before, the single-node replay held 10 405 hits to
/// the no-FC replay's 10 435, and rung 3 10 387 to rung 4's 10 439.
///
/// The two pairs are compared on their decisions; each replay's `last_ts`
/// counts are pinned in its own golden.  Rungs 3 and 4 used to be compared
/// on those counts too, and they matched only as sums: traced hit by hit,
/// the two rungs already made different skip decisions on 302 of their
/// 10 439 hits, near the freshness threshold, where their clocks differ.
/// When the fill's parked pick came to be charged under the next round's
/// flight, each clock moved by a few hundred nanoseconds per fill.  That
/// flipped four such hits on rung 3, netting zero, and five on rung 4,
/// netting one, so the sums then differed by one: (6 893, 3 546) against
/// (6 892, 3 547).  Since a short sample's re-sample flies under the next
/// op, with other victims on these rungs, they differ by sixteen:
/// (6 856, 3 566) against (6 840, 3 582); since rung 4 counts each hit's
/// FAA before its stamp, by fifteen: against (6 841, 3 581); since the
/// table is sized exactly, by four: (6 819, 3 634) against (6 815, 3 638);
/// since a regret is importance-weighted, by none: both (6 797, 3 658);
/// since a one-round fill returns once its round is rung, by three:
/// (6 809, 3 646) against (6 806, 3 649); since a starved fill charges the
/// pick it makes before its ring, by seven: (6 816, 3 620) against
/// (6 809, 3 627); since a weight sync is posted, by five: (6 787, 3 649)
/// against (6 792, 3 644).
#[test]
fn one_clients_fc_cache_moves_no_victim() {
    let decisions = |golden: Golden| CacheStatsSnapshot {
        fc_flushes: 0,
        ..golden.stats
    };
    assert_eq!(
        decisions(single_node_golden()),
        decisions(no_fc_cache_golden())
    );
    let [rung3, rung4] =
        [3, 4].map(|rung| replay(YcsbWorkload::C, DmConfig::default(), fig24_rung(rung)));
    assert_eq!(decisions(rung3), decisions(rung4));
}

#[test]
fn a_default_client_posts_signalled_and_unsignalled_wqes_and_polls_them() {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(500), DmConfig::default())
            .unwrap();
    let mut client = cache.client();
    for i in 0..200u64 {
        let key = i.to_le_bytes();
        if client.get(&key).is_none() {
            client.set(&key, b"fill");
        }
    }
    let stats = cache.pool().stats();
    // Lookups post signalled bucket READs behind a doorbell and poll them,
    // and a fill after its miss posts its object WRITE and its slot's
    // metadata WRITE unsignalled, with its insert CAS signalled behind them…
    assert!(stats.doorbells() > 0);
    assert!(stats.signalled_wqes() > 0);
    assert!(stats.cq_polls() > 0);
    assert_eq!(stats.unsignalled_wqes(), 2 * 200, "two WRITEs per fill");
    // …and a replace its object WRITE, ahead of its CAS.
    client.set(&0u64.to_le_bytes(), b"update");
    assert_eq!(stats.unsignalled_wqes(), 2 * 200 + 1);
}
