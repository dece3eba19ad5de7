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
